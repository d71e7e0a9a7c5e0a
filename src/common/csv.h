#ifndef TRAJKIT_COMMON_CSV_H_
#define TRAJKIT_COMMON_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace trajkit {

/// A parsed delimiter-separated file: a header row plus data rows.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column, or -1 when absent.
  int ColumnIndex(std::string_view name) const;
};

/// Parses comma-separated text already in memory: the first non-blank line
/// is the header, and every data row must have as many fields. Fields are
/// not quote-aware (none of the formats this library reads use quoting);
/// values are whitespace-stripped. CRLF line ends and blank lines are
/// accepted.
Result<CsvTable> ParseCsv(std::string_view text);

/// Reads and parses a CSV file from disk.
Result<CsvTable> ReadCsvFile(const std::string& path);

/// Serializes a table (header + rows) to CSV text.
std::string WriteCsv(const CsvTable& table, char delimiter = ',');

/// Writes CSV text to a file, creating parent directories if needed.
Status WriteCsvFile(const std::string& path, const CsvTable& table,
                    char delimiter = ',');

/// Reads an entire file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes a string to a file (truncating), creating parent directories.
Status WriteStringToFile(const std::string& path, std::string_view content);

}  // namespace trajkit

#endif  // TRAJKIT_COMMON_CSV_H_
