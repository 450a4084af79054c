#pragma once
// Tiny declarative command-line parser for examples and bench harnesses.
// Supports --name value, --name=value, and boolean --flag forms, generates
// --help text, and validates unknown options (typos fail loudly).

#include <charconv>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/types.hpp"

namespace fvdf {

/// Reads all of `text` as a decimal integer into `out`: false (and `out`
/// untouched) on an empty string, a sign `T` cannot hold, a trailing
/// character or an overflow. "4x" and "abc" are errors, not 4 and 0.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Reads a fabric extent "WxH" whose sides are whole decimal counts >= 1.
bool parse_extent(std::string_view text, i64& width, i64& height);

class CliParser {
public:
  CliParser(std::string program, std::string description);

  void add_i64(const std::string& name, i64* target, const std::string& help);
  void add_f64(const std::string& name, f64* target, const std::string& help);
  void add_string(const std::string& name, std::string* target, const std::string& help);
  void add_flag(const std::string& name, bool* target, const std::string& help);

  /// Parses argv. Returns false (after printing usage) if --help was given.
  /// Throws fvdf::Error on unknown options or malformed values.
  bool parse(int argc, const char* const* argv);

  std::string usage() const;

private:
  struct Option {
    std::string name;
    std::string help;
    bool is_flag;
    std::string default_repr;
    std::function<void(const std::string&)> apply;
    bool* flag_target = nullptr;
  };

  const Option* find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
};

} // namespace fvdf
