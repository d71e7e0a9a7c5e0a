#include "common/flags.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace trajkit {
namespace {

// The typed readers behind Flags::Get: the whole value must parse, and a
// double must be finite.
Result<long long> ParseValue(const std::string& text, long long) {
  return ParseInt64(text);
}
Result<unsigned long long> ParseValue(const std::string& text,
                                      unsigned long long) {
  return ParseUint64(text);
}
Result<double> ParseValue(const std::string& text, double) {
  const Result<double> value = ParseDouble(text);
  if (value.ok() && !std::isfinite(*value)) {
    return Status::ParseError("not finite");
  }
  return value;
}

const char* Kind(long long) { return "an integer"; }
const char* Kind(unsigned long long) { return "an unsigned 64-bit integer"; }
const char* Kind(double) { return "a finite number"; }

std::string Text(long long value) { return std::to_string(value); }
std::string Text(unsigned long long value) { return std::to_string(value); }
std::string Text(double value) { return StrPrintf("%g", value); }

}  // namespace

Flags::Flags(int argc, char** argv) {
  if (argc > 0) {
    program_ = argv[0];
    const size_t slash = program_.rfind('/');
    if (slash != std::string::npos) program_.erase(0, slash + 1);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!StartsWith(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    // insert_or_assign instead of operator[]= : the latter trips a GCC 12
    // -Wrestrict false positive (PR 105651) under -Werror.
    if (eq == std::string_view::npos) {
      values_.insert_or_assign(std::string(arg), std::string("1"));
    } else {
      values_.insert_or_assign(std::string(arg.substr(0, eq)),
                               std::string(arg.substr(eq + 1)));
    }
  }
}

const std::string* Flags::Find(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  read_.emplace(key);
  return &it->second;
}

void Flags::Fail(std::string message) const {
  if (error_.ok()) error_ = Status::InvalidArgument(std::move(message));
}

template <typename T>
T Flags::Get(std::string_view key, T fallback, T lo, T hi) const {
  T value = fallback;
  if (const std::string* text = Find(key)) {
    const Result<T> parsed = ParseValue(*text, T());
    if (!parsed.ok()) {
      Fail("--" + std::string(key) + "=" + *text + " is not " + Kind(T()));
      return fallback;
    }
    value = *parsed;
  }
  if (value >= lo && value <= hi) return value;
  Fail("--" + std::string(key) + " must be in [" + Text(lo) + ", " +
       Text(hi) + "] (got " + Text(value) + ")");
  return fallback;
}

int Flags::GetInt(std::string_view key, int fallback, int lo, int hi) const {
  return static_cast<int>(Get<long long>(key, fallback, lo, hi));
}

uint64_t Flags::GetUint64(std::string_view key, uint64_t fallback,
                          uint64_t lo, uint64_t hi) const {
  return Get<unsigned long long>(key, fallback, lo, hi);
}

double Flags::GetDouble(std::string_view key, double fallback, double lo,
                        double hi) const {
  return Get<double>(key, fallback, lo, hi);
}

std::string Flags::GetString(std::string_view key,
                             const std::string& fallback) const {
  const std::string* text = Find(key);
  return text == nullptr ? fallback : *text;
}

bool Flags::GetBool(std::string_view key, bool fallback) const {
  const std::string* text = Find(key);
  if (text == nullptr) return fallback;
  if (*text == "1" || *text == "true") return true;
  if (*text == "0" || *text == "false") return false;
  Fail("--" + std::string(key) + "=" + *text +
       " is not a boolean (use 1, 0, true or false)");
  return fallback;
}

bool Flags::Has(std::string_view key) const {
  return values_.find(key) != values_.end();
}

Status Flags::Check() const {
  if (!error_.ok()) return error_;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) {
      return Status::InvalidArgument("unknown flag --" + key);
    }
  }
  return Status::Ok();
}

void Flags::CheckOrExit() const {
  const Status status = Check();
  if (status.ok()) return;
  std::fprintf(stderr, "%s: %s\n", program_.c_str(),
               status.message().c_str());
  std::exit(2);
}

}  // namespace trajkit
