#include "telemetry/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace fvdf::telemetry {

// --- writer ----------------------------------------------------------------

void JsonWriter::prefix() {
  if (stack_.empty()) return;
  if (stack_.back() < 0) {
    stack_.back() = -stack_.back(); // value completes the pending key
    return;
  }
  if (stack_.back() > 0) out_.push_back(',');
  ++stack_.back();
}

void JsonWriter::raw(std::string_view text) { out_.append(text); }

JsonWriter& JsonWriter::begin_object() {
  prefix();
  out_.push_back('{');
  stack_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  FVDF_CHECK_MSG(!stack_.empty() && stack_.back() >= 0, "unbalanced end_object");
  stack_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  prefix();
  out_.push_back('[');
  stack_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  FVDF_CHECK_MSG(!stack_.empty() && stack_.back() >= 0, "unbalanced end_array");
  stack_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  FVDF_CHECK_MSG(!stack_.empty(), "key outside object");
  if (stack_.back() > 0) out_.push_back(',');
  ++stack_.back();
  out_.push_back('"');
  raw(json_escape(name));
  raw("\":");
  stack_.back() = -stack_.back(); // next emission is this key's value
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  prefix();
  out_.push_back('"');
  raw(json_escape(text));
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::value(bool boolean) {
  prefix();
  raw(boolean ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(f64 number) {
  prefix();
  if (!std::isfinite(number)) { // JSON has no inf/nan
    raw("null");
    return *this;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), number);
  FVDF_CHECK(res.ec == std::errc{});
  raw(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
  return *this;
}

JsonWriter& JsonWriter::value(u64 number) {
  prefix();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), number);
  raw(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
  return *this;
}

JsonWriter& JsonWriter::value(i64 number) {
  prefix();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), number);
  raw(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
  return *this;
}

std::string JsonWriter::take() {
  FVDF_CHECK_MSG(stack_.empty(), "take() with open containers");
  std::string result;
  result.swap(out_);
  return result;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    case '\r': out += "\\r"; break;
    case '\t': out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out.push_back(c);
      }
    }
  }
  return out;
}

} // namespace fvdf::telemetry
