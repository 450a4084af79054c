#include "checks.hpp"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/serialize.hpp"

namespace perfbench {

LoggedCase parse_case_log(const std::string& log) {
  LoggedCase out;
  bool device = false, iterations = false;
  std::istringstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    const char* s = line.c_str();
    if (std::strncmp(s, "device: ", 8) == 0) {
      char* end = nullptr;
      out.device_seconds = std::strtod(s + 8, &end);
      const char* tail = std::strstr(end, "(simulated), ");
      if (end != s + 8 && tail != nullptr) {
        out.messages = std::strtoull(tail + 13, nullptr, 10);
        device = true;
      }
    } else if (std::strncmp(s, "iterations: ", 12) == 0) {
      out.iterations = std::strtoull(s + 12, nullptr, 10);
      iterations = true;
    }
  }
  out.found = device && iterations;
  return out;
}

namespace {

template <typename T>
std::string mismatch(const char* what, T observed, T expected) {
  std::ostringstream os;
  os.precision(17);
  os << what << ": got " << observed << ", expected " << expected;
  return os.str();
}

} // namespace

std::string check_case_work(const CaseWork& observed, const CaseWork& expected) {
  if (observed.events != expected.events)
    return mismatch("events", observed.events, expected.events);
  if (observed.device_cycles != expected.device_cycles)
    return mismatch("device cycles", observed.device_cycles, expected.device_cycles);
  if (observed.messages != expected.messages)
    return mismatch("messages", observed.messages, expected.messages);
  if (observed.iterations != expected.iterations)
    return mismatch("iterations", observed.iterations, expected.iterations);
  return {};
}

std::string check_case_log(const LoggedCase& observed, const CaseWork& expected,
                           f64 clock_hz) {
  if (!observed.found) return "run_scenario log lacks the device/iterations lines";
  const f64 device_seconds = expected.device_cycles / clock_hz;
  if (observed.device_seconds != device_seconds)
    return mismatch("logged device seconds", observed.device_seconds, device_seconds);
  if (observed.messages != expected.messages)
    return mismatch("logged messages", observed.messages, expected.messages);
  if (observed.iterations != expected.iterations)
    return mismatch("logged iterations", observed.iterations, expected.iterations);
  return {};
}

std::string check_bitwise(const std::vector<f64>& observed,
                          const std::vector<f64>& expected, const char* what) {
  if (observed.size() != expected.size())
    return mismatch(what, observed.size(), expected.size());
  if (std::memcmp(observed.data(), expected.data(),
                  observed.size() * sizeof(f64)) != 0)
    return std::string(what) + ": pressure fields differ bitwise";
  return {};
}

std::string check_result_event(const fvdf::serve::JsonValue& event,
                               const std::string& fingerprint,
                               const std::string& expected_hash) {
  const std::string kind = event.get_string("event", "");
  if (kind != "result")
    return "event '" + kind + "': " + event.get_string("code", "") + " " +
           event.get_string("message", "");
  if (!event.get_bool("converged", false)) return "result did not converge";
  if (event.get_string("fingerprint", "") != fingerprint)
    return "fingerprint " + event.get_string("fingerprint", "") + ", expected " +
           fingerprint;
  if (!expected_hash.empty() &&
      event.get_string("pressure_hash", "") != expected_hash)
    return "pressure_hash " + event.get_string("pressure_hash", "") +
           ", expected " + expected_hash;
  return {};
}

std::string pressure_hash(const std::vector<f64>& pressure) {
  return fvdf::hash_hex(
      fvdf::fnv1a64(pressure.data(), pressure.size() * sizeof(f64)));
}

} // namespace perfbench
