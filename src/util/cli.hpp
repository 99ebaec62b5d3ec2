// Tiny command-line flag parser used by the benches and examples.
//
// Supports --name=value, --name value, and bare boolean --name. Unknown flags
// are an error (fail fast: a typo'd sweep parameter must not silently run the
// default experiment). Every flag is registered with a help string so each
// binary can print a usage summary with --help.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sjs {

class CliFlags {
 public:
  /// Registers flags with default values and help text.
  void add_double(const std::string& name, double def, const std::string& help);
  void add_int(const std::string& name, std::int64_t def,
               const std::string& help);
  void add_bool(const std::string& name, bool def, const std::string& help);
  void add_string(const std::string& name, const std::string& def,
                  const std::string& help);
  /// Comma-separated list of doubles, e.g. --lambda=4,5,6.
  void add_double_list(const std::string& name, std::vector<double> def,
                       const std::string& help);

  /// Parses argv. Returns false (after printing usage) for --help or on error.
  /// On error, `error()` holds a description.
  bool parse(int argc, char** argv);

  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  const std::vector<double>& get_double_list(const std::string& name) const;

  /// Post-parse validation: false (recording a message in error()) unless
  /// the named double/int flag is strictly positive; doubles must also be
  /// finite (a --accel=inf or =nan would silently wedge a clock bridge).
  bool require_positive(const std::string& name);
  /// Post-parse validation for int flags: false (recording a message in
  /// error()) unless the value is >= min. Use require_at_least(name, 0) to
  /// reject negatives on a count that may legitimately be zero.
  bool require_at_least(const std::string& name, std::int64_t min);

  const std::string& error() const { return error_; }
  std::string usage(const std::string& program) const;

 private:
  enum class Type { kDouble, kInt, kBool, kString, kDoubleList };
  struct Flag {
    Type type;
    std::string help;
    double d = 0;
    std::int64_t i = 0;
    bool b = false;
    std::string s;
    std::vector<double> list;
  };

  const Flag* find(const std::string& name, Type type) const;
  bool set_value(Flag& flag, const std::string& value);

  std::map<std::string, Flag> flags_;
  std::string error_;
};

/// Parses a whole string as one double (std::stod syntax). Throws
/// std::invalid_argument unless every character is consumed, so "6abc" is an
/// error rather than 6, and std::out_of_range on overflow.
double parse_double(const std::string& s);

/// Parses a whole string as one decimal integer; "3.7" and "1x" are errors.
/// Same exceptions as parse_double.
std::int64_t parse_int(const std::string& s);

/// Parses a comma-separated list of doubles ("1,2.5,3"). Throws
/// std::invalid_argument on malformed input.
std::vector<double> parse_double_list(const std::string& s);

}  // namespace sjs
