// Self-test of the benchmark's output checks (perfbench/checks.hpp): each
// check must accept the real output of a small case and reject it when the
// expectation is wrong. Run with `ctest --test-dir <build dir>` or directly.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "checks.hpp"
#include "common/config.hpp"
#include "core/solver.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace fvdf;
using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

const char* kCase =
    "[mesh]\nnx = 8\nny = 6\nnz = 4\n\n[perm]\nkind = lognormal\nseed = 7\n\n"
    "[solver]\nbackend = dataflow\ntolerance = 0\nmax_iterations = 10\n"
    "verify = true\n";

// What serve-mixed sends: a case that converges.
const char* kServeCase =
    "[mesh]\nnx = 6\nny = 6\nnz = 2\n\n[perm]\nkind = lognormal\nseed = 7\n\n"
    "[solver]\nbackend = dataflow\ntolerance = 1e-6\nverify = true\n";

std::vector<f64> widen(const std::vector<f32>& v) { return {v.begin(), v.end()}; }

core::DataflowResult direct_solve(u32 threads) {
  const app::Scenario scenario = app::scenario_from_config(Config::parse_string(kCase));
  core::DataflowConfig config;
  config.tolerance = static_cast<f32>(scenario.tolerance);
  config.max_iterations = scenario.max_iterations;
  config.verify_preflight = true;
  config.sim_threads = threads;
  return core::solve_dataflow(*scenario.problem, config);
}

void case_work_checks(const core::DataflowResult& ref) {
  const CaseWork real{ref.fabric.events_processed, ref.device_cycles,
                      ref.fabric.messages_sent, ref.iterations};
  expect(check_case_work(real, real).empty(), "case work: real expectation passes");
  CaseWork wrong = real;
  ++wrong.events;
  expect(!check_case_work(real, wrong).empty(), "case work: wrong events rejected");
  wrong = real;
  wrong.device_cycles += 0.5;
  expect(!check_case_work(real, wrong).empty(), "case work: wrong cycles rejected");
  wrong = real;
  ++wrong.messages;
  expect(!check_case_work(real, wrong).empty(), "case work: wrong messages rejected");
  wrong = real;
  ++wrong.iterations;
  expect(!check_case_work(real, wrong).empty(), "case work: wrong iterations rejected");
}

void case_log_checks(const core::DataflowResult& ref) {
  std::ostringstream log;
  log.precision(17);
  app::run_scenario(app::scenario_from_config(Config::parse_string(kCase)), log);
  const LoggedCase logged = parse_case_log(log.str());
  const f64 clock = wse::TimingParams{}.clock_hz;
  const CaseWork real{ref.fabric.events_processed, ref.device_cycles,
                      ref.fabric.messages_sent, ref.iterations};
  expect(check_case_log(logged, real, clock).empty(), "case log: real expectation passes");
  CaseWork wrong = real;
  wrong.device_cycles += 0.5;
  expect(!check_case_log(logged, wrong, clock).empty(), "case log: wrong cycles rejected");
  wrong = real;
  ++wrong.messages;
  expect(!check_case_log(logged, wrong, clock).empty(), "case log: wrong messages rejected");
  wrong = real;
  ++wrong.iterations;
  expect(!check_case_log(logged, wrong, clock).empty(), "case log: wrong iterations rejected");
  expect(!check_case_log(parse_case_log("scenario: no device line\n"), real, clock).empty(),
         "case log: missing device line rejected");
}

void bitwise_checks(const core::DataflowResult& serial) {
  const std::vector<f64> a = widen(serial.pressure);
  const std::vector<f64> b = widen(direct_solve(4).pressure);
  expect(check_bitwise(b, a, "4t vs serial").empty(), "bitwise: 4-thread equals serial");
  std::vector<f64> flipped = a;
  flipped[flipped.size() / 2] = std::nextafter(flipped[flipped.size() / 2], 2.0);
  expect(!check_bitwise(flipped, a, "one ulp").empty(), "bitwise: one-ulp change rejected");
  flipped.pop_back();
  expect(!check_bitwise(flipped, a, "short").empty(), "bitwise: size change rejected");
}

void result_event_checks() {
  const std::string socket = "perfbench-selftest-" + std::to_string(::getpid()) + ".sock";
  serve::ServerConfig config;
  config.socket_path = socket;
  serve::Server server(config);
  server.start();
  serve::JsonValue result, error;
  {
    serve::Client client;
    client.connect(socket);
    serve::Client::SolveRequest request;
    request.id = "good";
    request.case_text = kServeCase;
    client.solve(request);
    result = client.wait_result("good");
    request.id = "bad";
    request.case_text = "[mesh]\nnx = -1\n";
    client.solve(request);
    error = client.wait_result("bad");
  }
  server.request_shutdown();
  server.wait();
  ::unlink(socket.c_str());

  std::ostringstream log;
  const app::ScenarioOutcome single = app::run_scenario(
      app::scenario_from_config(Config::parse_string(kServeCase)), log);
  const std::string fingerprint = app::case_fingerprint(Config::parse_string(kServeCase));
  const std::string hash = pressure_hash(single.pressure);
  expect(check_result_event(result, fingerprint, hash).empty(),
         "result event: single-shot hash and fingerprint pass");
  expect(!check_result_event(result, fingerprint, "0000000000000000").empty(),
         "result event: wrong pressure hash rejected");
  expect(!check_result_event(result, "0000000000000000", hash).empty(),
         "result event: wrong fingerprint rejected");
  expect(!check_result_event(error, fingerprint, "").empty(),
         "result event: error event rejected");
}

} // namespace

int main() {
  const core::DataflowResult serial = direct_solve(1);
  case_work_checks(serial);
  case_log_checks(serial);
  bitwise_checks(serial);
  result_event_checks();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
