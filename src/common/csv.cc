#include "common/csv.h"

#include <filesystem>
#include <fstream>

#include "common/strings.h"

namespace trajkit {

int CsvTable::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Result<CsvTable> ParseCsv(std::string_view text) {
  CsvTable table;
  size_t pos = 0;
  int line_number = 0;
  size_t expected_fields = 0;
  bool saw_first_data_row = false;
  bool header_pending = true;

  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = (eol == std::string_view::npos)
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (StripWhitespace(line).empty()) continue;

    std::vector<std::string_view> fields = SplitString(line, ',');
    if (header_pending) {
      header_pending = false;
      for (std::string_view f : fields) {
        table.header.emplace_back(StripWhitespace(f));
      }
      continue;
    }
    if (!saw_first_data_row) {
      saw_first_data_row = true;
      expected_fields = fields.size();
      if (table.header.size() != expected_fields) {
        return Status::ParseError(StrPrintf(
            "line %d: %zu fields but header has %zu columns", line_number,
            expected_fields, table.header.size()));
      }
    } else if (fields.size() != expected_fields) {
      return Status::ParseError(
          StrPrintf("line %d: expected %zu fields, got %zu", line_number,
                    expected_fields, fields.size()));
    }
    std::vector<std::string> row;
    row.reserve(fields.size());
    for (std::string_view f : fields) {
      row.emplace_back(StripWhitespace(f));
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

Result<CsvTable> ReadCsvFile(const std::string& path) {
  TRAJKIT_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return ParseCsv(content);
}

std::string WriteCsv(const CsvTable& table, char delimiter) {
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(delimiter);
      out.append(row[i]);
    }
    out.push_back('\n');
  };
  if (!table.header.empty()) append_row(table.header);
  for (const auto& row : table.rows) append_row(row);
  return out;
}

Status WriteCsvFile(const std::string& path, const CsvTable& table,
                    char delimiter) {
  return WriteStringToFile(path, WriteCsv(table, delimiter));
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open file for reading: " + path);
  }
  // One read of the file's size straight into the result, then a drain
  // loop for anything the size did not cover (a file that grew, a pipe).
  std::string content;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec && size > 0) {
    content.resize(static_cast<size_t>(size));
    in.read(content.data(), static_cast<std::streamsize>(size));
    content.resize(static_cast<size_t>(in.gcount()));
  }
  char chunk[4096];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    content.append(chunk, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) {
    return Status::IoError("read failure on: " + path);
  }
  return content;
}

Status WriteStringToFile(const std::string& path, std::string_view content) {
  std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(fs_path.parent_path(), ec);
    if (ec) {
      return Status::IoError("cannot create directories for: " + path + ": " +
                             ec.message());
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open file for writing: " + path);
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) {
    return Status::IoError("write failure on: " + path);
  }
  return Status::Ok();
}

}  // namespace trajkit
