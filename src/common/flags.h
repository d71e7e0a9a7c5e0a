#ifndef TRAJKIT_COMMON_FLAGS_H_
#define TRAJKIT_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace trajkit {

/// The one command-line reader of every TrajKit entry point (the CLI
/// subcommands, the experiment harnesses and the microbenchmarks).
/// Recognizes "--key=value" and bare "--key" (value "1"); anything not
/// starting with "--" is collected as a positional argument.
///
/// Reading rules. An absent flag takes its fallback. A present value must
/// parse in full: integers in base 10, doubles finite, bools one of bare,
/// 1, 0, true or false. The value, fallback included, must then lie in the
/// getter's inclusive [lo, hi] range, so a bound that depends on another
/// flag also rejects a default it excludes. A value that breaks a rule
/// records an InvalidArgument naming the flag and the getter returns the
/// fallback; only the first such error is kept. Entry points read every
/// flag first, then call CheckOrExit() once before doing any work. The
/// getters record what they read, so one Flags is read by one thread.
class Flags {
 public:
  Flags(int argc, char** argv);

  int GetInt(std::string_view key, int fallback,
             int lo = std::numeric_limits<int>::min(),
             int hi = std::numeric_limits<int>::max()) const;
  /// Full-width unsigned lookup for 64-bit seeds; a leading '-' is an
  /// error, never a wrap.
  uint64_t GetUint64(std::string_view key, uint64_t fallback,
                     uint64_t lo = 0,
                     uint64_t hi = std::numeric_limits<uint64_t>::max()) const;
  double GetDouble(std::string_view key, double fallback,
                   double lo = -std::numeric_limits<double>::infinity(),
                   double hi = std::numeric_limits<double>::infinity()) const;
  std::string GetString(std::string_view key,
                        const std::string& fallback) const;
  bool GetBool(std::string_view key, bool fallback) const;

  /// Whether the flag was given. Does not count as reading it.
  bool Has(std::string_view key) const;

  /// Non-flag arguments in order (e.g. the CLI subcommand).
  const std::vector<std::string>& positional() const { return positional_; }

  /// The first malformed or out-of-range value met so far (OK if none).
  const Status& status() const { return error_; }

  /// status(), else an InvalidArgument naming a flag that was given but
  /// never read by a getter (the first such in name order).
  Status Check() const;

  /// Prints Check()'s error to stderr and exits with status 2 if it is not
  /// OK. Entry points call it once, after reading every flag they take.
  void CheckOrExit() const;

 private:
  /// The one reading rule behind the typed getters (see the class
  /// comment); T is long long, unsigned long long or double.
  template <typename T>
  T Get(std::string_view key, T fallback, T lo, T hi) const;
  /// The flag's value and marks it read; nullptr when absent.
  const std::string* Find(std::string_view key) const;
  /// Keeps the first error.
  void Fail(std::string message) const;

  std::string program_;
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string, std::less<>> read_;
  mutable Status error_;
};

}  // namespace trajkit

#endif  // TRAJKIT_COMMON_FLAGS_H_
