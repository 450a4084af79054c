#pragma once
// Parsed JSON values: the project's one JSON reader. The serve daemon
// reads client requests with it (docs/serving.md), and the tests parse the
// telemetry writer's documents (telemetry/json.hpp) back through it. A
// small recursive-descent parser producing an immutable value tree, with
// the strict RFC 8259 grammar. Throws fvdf::Error with a byte offset on
// malformed input.

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace fvdf::serve {

class JsonValue {
public:
  enum class Kind : u8 { Null, Bool, Number, String, Array, Object };

  /// Parses exactly one JSON value spanning all of `text` (trailing
  /// whitespace allowed). Throws fvdf::Error on anything else.
  static JsonValue parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_number() const { return kind_ == Kind::Number; }

  /// Typed accessors; throw fvdf::Error on a kind mismatch.
  bool as_bool() const;
  f64 as_f64() const;
  i64 as_i64() const; // as_f64 narrowed; throws if not integral
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;                        // array
  const std::vector<std::pair<std::string, JsonValue>>& members() const; // object

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  bool has(std::string_view key) const { return find(key) != nullptr; }

  /// Convenience typed member getters with fallbacks; throw on a present
  /// member of the wrong kind (a typo must not silently default).
  std::string get_string(std::string_view key, const std::string& fallback) const;
  f64 get_f64(std::string_view key, f64 fallback) const;
  i64 get_i64(std::string_view key, i64 fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;

private:
  friend struct JsonParser;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  f64 number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

} // namespace fvdf::serve
