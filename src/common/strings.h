#ifndef TRAJKIT_COMMON_STRINGS_H_
#define TRAJKIT_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace trajkit {

/// Splits `text` on every occurrence of `sep`. Adjacent separators yield
/// empty fields; an empty input yields a single empty field (CSV semantics).
std::vector<std::string_view> SplitString(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True iff `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// ASCII lower-casing (locale independent).
std::string ToLowerAscii(std::string_view text);

/// Parses a base-10 double; whole string must be consumed (modulo
/// surrounding whitespace).
Result<double> ParseDouble(std::string_view text);

/// Parses a base-10 64-bit signed integer; whole string must be consumed.
Result<long long> ParseInt64(std::string_view text);

/// Parses a base-10 64-bit unsigned integer; whole string must be consumed
/// and no leading '-' is accepted (strtoull would silently wrap it).
Result<unsigned long long> ParseUint64(std::string_view text);

/// Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// printf-style formatting into a std::string.
std::string StrPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace trajkit

#endif  // TRAJKIT_COMMON_STRINGS_H_
