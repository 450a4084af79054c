// fvdf_perfbench — the solve-path benchmark (perfbench/README.md).
//
//   fvdf_perfbench --workload sim-serial|sim-4t|serve-mixed --seed N
//                  --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints "# ..." diagnostics, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when an
// output check fails, 2 on a usage error or an exception, 3 when no unit
// completes for kStallSeconds (see Watchdog).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/log.hpp"
#include "workloads.hpp"

namespace {

// A 64x64x8 case takes 1-7 s on a noisy host; a minute without one is a hang.
constexpr double kStallSeconds = 60;

int usage(const char* why) {
  std::fprintf(stderr,
               "fvdf_perfbench: %s\nusage: fvdf_perfbench --workload "
               "sim-serial|sim-4t|serve-mixed --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n",
               why);
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") options.seconds = std::strtod(value.c_str(), nullptr);
    else if (arg == "--trace") options.trace = value == "1";
    else if (arg == "--work-dir") options.work_dir = value;
    else return usage(("unknown option " + arg).c_str());
  }
  if (options.seconds <= 0) return usage("--seconds must be positive");
  fvdf::set_log_level(fvdf::LogLevel::Warn);

  RunReport report(options.trace);
  Watchdog watchdog(kStallSeconds);
  try {
    if (options.workload == "sim-serial") run_sim(options, 1, report);
    else if (options.workload == "sim-4t") run_sim(options, 4, report);
    else if (options.workload == "serve-mixed") run_serve(options, report);
    else return usage(("unknown workload '" + options.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fvdf_perfbench: %s\n", e.what());
    return 2;
  }
  for (const std::string& e : report.errors)
    std::fprintf(stderr, "fvdf_perfbench: check failed: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.metrics.to_json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
