#pragma once
// Minimal deterministic JSON writer for telemetry exports.
//
// The writer emits keys in exactly the order the caller provides them and
// formats floating-point values with shortest-round-trip std::to_chars, so
// a given data set serializes to bitwise-identical bytes on every run and
// thread count — the property the telemetry determinism tests compare.
// The one JSON reader is serve::JsonValue (serve/json.hpp); the tests
// parse emitted documents back through it, and the CI smoke job runs
// them through `python3 -m json.tool`.

#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace fvdf::telemetry {

class JsonWriter {
public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; the next value/begin_* call supplies its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool boolean);
  JsonWriter& value(f64 number);
  JsonWriter& value(u64 number);
  JsonWriter& value(i64 number);
  JsonWriter& value(u32 number) { return value(static_cast<u64>(number)); }
  JsonWriter& value(i32 number) { return value(static_cast<i64>(number)); }

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& kv(std::string_view name, T v) {
    key(name);
    return value(v);
  }

  /// Finishes and returns the document. The writer is left empty.
  std::string take();

private:
  void prefix();
  void raw(std::string_view text);

  std::string out_;
  // One entry per open container: number of elements emitted so far;
  // negative flags "a key was just written, next emission is its value".
  std::vector<i64> stack_;
};

/// Escapes a string for inclusion in a JSON document (no quotes added).
std::string json_escape(std::string_view text);

} // namespace fvdf::telemetry
