// Minimal command-line flag parser for the example/bench executables.
//
// Accepts "--key=value" and "--flag" forms; anything else is a positional
// argument. Unknown keys are kept so callers can report them.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rat::util {

/// @p text as a number under the worksheet parser's token rule
/// (std::from_chars, one leading '+' allowed). Throws
/// std::invalid_argument naming @p flag when it is not a number,
/// overflows or is not finite.
double parse_finite(std::string_view text, std::string_view flag);

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

  bool has(const std::string& key) const;

  /// String value of --key=value, or nullopt when absent.
  std::optional<std::string> get(const std::string& key) const;

  std::string get_or(const std::string& key, const std::string& fallback) const;
  /// Number flag, read by parse_finite.
  double get_double(const std::string& key, double fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Non-negative integer flag with range validation: throws when the value
  /// is not an unsigned integer or lies outside [min_value, max_value].
  /// The fallback is returned as-is when the flag is absent.
  std::size_t get_size_t(
      const std::string& key, std::size_t fallback, std::size_t min_value = 0,
      std::size_t max_value = std::numeric_limits<std::size_t>::max()) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// All parsed --keys, for "unknown flag" diagnostics.
  std::vector<std::string> keys() const;

  /// Throws std::invalid_argument("unknown flag --<key>") for the first
  /// --key that is not in @p known.
  void require_known(std::initializer_list<std::string_view> known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace rat::util
