#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace trajkit {

std::vector<std::string_view> SplitString(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

namespace {

// std::isspace in the "C" locale (the library never sets another), without
// the per-character locale lookup.
bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

}  // namespace

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && IsAsciiSpace(text[begin])) ++begin;
  size_t end = text.size();
  while (end > begin && IsAsciiSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string ToLowerAscii(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

namespace {

// Copies `text` NUL-terminated into `stack` when it fits, else into `heap`,
// so the strto* fallbacks below allocate only for very long fields.
constexpr size_t kStackField = 128;
const char* CString(std::string_view text, char (&stack)[kStackField],
                    std::string& heap) {
  if (text.size() < kStackField) {
    std::memcpy(stack, text.data(), text.size());
    stack[text.size()] = '\0';
    return stack;
  }
  heap.assign(text);
  return heap.c_str();
}

}  // namespace

// Both parsers accept exactly what strtod/strtoll accept on the whole
// stripped field. std::from_chars takes the common case without copying;
// whatever it rejects, and any double result strtod might flag with ERANGE
// (zero, subnormal, the smallest normal, inf/nan), goes to strto* as before,
// so a leading '+', hex, "inf" and out-of-range input behave as they did.
Result<double> ParseDouble(std::string_view text) {
  const std::string_view stripped = StripWhitespace(text);
  if (stripped.empty()) {
    return Status::ParseError("empty string is not a double");
  }
  const char* const last = stripped.data() + stripped.size();
  double value = 0.0;
  const std::from_chars_result fast =
      std::from_chars(stripped.data(), last, value);
  if (fast.ec == std::errc() && fast.ptr == last && std::isfinite(value) &&
      std::fabs(value) > std::numeric_limits<double>::min()) {
    return value;
  }
  char stack[kStackField];
  std::string heap;
  const char* const buf = CString(stripped, stack, heap);
  errno = 0;
  char* end = nullptr;
  value = std::strtod(buf, &end);
  if (end != buf + stripped.size() || errno == ERANGE) {
    return Status::ParseError("not a double: '" + std::string(stripped) +
                              "'");
  }
  return value;
}

Result<long long> ParseInt64(std::string_view text) {
  const std::string_view stripped = StripWhitespace(text);
  if (stripped.empty()) {
    return Status::ParseError("empty string is not an integer");
  }
  const char* const last = stripped.data() + stripped.size();
  long long value = 0;
  const std::from_chars_result fast =
      std::from_chars(stripped.data(), last, value);
  if (fast.ec == std::errc() && fast.ptr == last) return value;
  char stack[kStackField];
  std::string heap;
  const char* const buf = CString(stripped, stack, heap);
  errno = 0;
  char* end = nullptr;
  value = std::strtoll(buf, &end, 10);
  if (end != buf + stripped.size() || errno == ERANGE) {
    return Status::ParseError("not an integer: '" + std::string(stripped) +
                              "'");
  }
  return value;
}

Result<unsigned long long> ParseUint64(std::string_view text) {
  std::string_view stripped = StripWhitespace(text);
  if (stripped.empty()) {
    return Status::ParseError("empty string is not an unsigned integer");
  }
  if (stripped.front() == '-') {
    return Status::ParseError("negative value is not an unsigned integer: '" +
                              std::string(stripped) + "'");
  }
  std::string buf(stripped);
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::ParseError("not an unsigned integer: '" + buf + "'");
  }
  return value;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string StrPrintf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace trajkit
