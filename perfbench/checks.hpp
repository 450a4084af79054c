#pragma once
// Output checks every benchmark run applies. Each returns an empty string
// when the output matches its expectation and a one-line reason otherwise,
// so a run can count failures and the self-test can prove each check
// rejects a wrong expectation (perfbench/selftest.cpp).

#include <string>
#include <vector>

#include "common/types.hpp"
#include "serve/json.hpp"

namespace perfbench {

using fvdf::f64;
using fvdf::u64;

/// What run_scenario's log reports for a steady dataflow case, parsed from
/// its "device: <s> s (simulated), <n> messages" and "iterations: <k>"
/// lines (written at 17 significant digits, so device_seconds is exact).
struct LoggedCase {
  bool found = false;
  f64 device_seconds = 0;
  u64 messages = 0;
  u64 iterations = 0;
};
LoggedCase parse_case_log(const std::string& log);

/// Exact device work of one case.
struct CaseWork {
  u64 events = 0;
  f64 device_cycles = 0;
  u64 messages = 0;
  u64 iterations = 0;
};

/// Counts from a direct solve (core::DataflowResult) against the expected
/// work; every field must match exactly.
std::string check_case_work(const CaseWork& observed, const CaseWork& expected);

/// run_scenario's logged device time, message count and iterations against
/// the expected work (device time compared as clock seconds of the cycles).
std::string check_case_log(const LoggedCase& observed, const CaseWork& expected,
                           f64 clock_hz);

/// Bitwise identity of two pressure fields.
std::string check_bitwise(const std::vector<f64>& observed,
                          const std::vector<f64>& expected, const char* what);

/// A serve "result" event against the case's client-side fingerprint and,
/// for hot requests, the single-shot run_scenario pressure hash (empty =
/// not checked).
std::string check_result_event(const fvdf::serve::JsonValue& event,
                               const std::string& fingerprint,
                               const std::string& expected_hash);

/// FNV-1a hash of a pressure field, spelled as the daemon spells it.
std::string pressure_hash(const std::vector<f64>& pressure);

} // namespace perfbench
