// fvdf_sim — the production-style simulation driver: one INI config in,
// solved pressure (steady or transient, host or simulated dataflow
// device) plus VTK/checkpoint artifacts out.
//
//   ./tools/fvdf_sim path/to/case.ini
//   ./tools/fvdf_sim --sim-threads 4 path/to/case.ini
//   ./tools/fvdf_sim --profile-host prof_out path/to/case.ini
//   ./tools/fvdf_sim --print-template > case.ini
//
// See src/app/scenario.hpp for the full schema. `--sim-threads N` overrides
// the config's solver.sim_threads (0 = usable CPUs); it changes
// wall-clock only, never results. `--profile-host DIR` overrides
// output.host_profile: with the dataflow backend it attaches the host-side
// execution profiler and writes host_profile.json + host_trace.json into
// DIR (docs/observability.md, "Host profiling").
//
// SIGINT/SIGTERM during a transient run stop it gracefully: the current
// backward-Euler step finishes, artifacts (including output.checkpoint
// with the step counter) are written, and the exit code is 3 — so a later
// run with transient.resume continues from exactly that state. Steady
// solves are single device/host runs and remain uninterruptible.

#include <atomic>
#include <csignal>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "app/scenario.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"

namespace {

std::atomic<bool> g_stop_requested{false};

void on_signal(int) { g_stop_requested.store(true); }

constexpr const char* kTemplate = R"(# fvdf_sim case file
[mesh]
nx = 32
ny = 32
nz = 8

[perm]
kind = lognormal     ; homogeneous | layered | lognormal | channelized
sigma = 1.0
seed = 7

[wells]
injector_pressure = 1.0
producer_pressure = 0.0

[solver]
backend = host-pcg   ; host | host-pcg | dataflow
tolerance = 1e-18
sim_threads = 1      ; fabric simulator workers (0 = usable CPUs)

[transient]
enabled = false
dt = 0.5
steps = 10

[output]
vtk = case.vtk
heatmap = true
)";

void usage() {
  std::cerr << "usage: fvdf_sim [--sim-threads N] [--profile-host DIR] "
               "<case.ini>  (or --print-template)\n";
}

} // namespace

int main(int argc, char** argv) {
  std::string case_path;
  std::optional<fvdf::u32> sim_threads; // unset = use the config's value
  std::string host_profile_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-template") {
      std::cout << kTemplate;
      return 0;
    }
    if (arg == "--sim-threads") {
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      const char* text = argv[++i];
      fvdf::u32 count = 0;
      // A plain decimal count: no sign, no suffix, no overflow.
      if (!fvdf::parse_whole(text, count)) {
        std::cerr << "error: --sim-threads expects a decimal count, got '" << text
                  << "'\n";
        usage();
        return 2;
      }
      sim_threads = count;
      continue;
    }
    if (arg == "--profile-host") {
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      host_profile_dir = argv[++i];
      continue;
    }
    if (!case_path.empty()) {
      usage();
      return 2;
    }
    case_path = arg;
  }
  if (case_path.empty()) {
    usage();
    return 2;
  }
  try {
    const auto config = fvdf::Config::parse_file(case_path);
    auto scenario = fvdf::app::scenario_from_config(config);
    if (sim_threads) scenario.sim_threads = *sim_threads;
    if (!host_profile_dir.empty()) {
      if (scenario.backend != fvdf::app::Backend::Dataflow) {
        std::cerr << "error: --profile-host requires solver.backend = dataflow\n";
        return 2;
      }
      scenario.host_profile_dir = host_profile_dir;
    }
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    fvdf::app::RunHooks hooks;
    hooks.on_step = [](fvdf::i64, fvdf::i64, fvdf::u64,
                       const std::vector<fvdf::f64>&) {
      return !g_stop_requested.load();
    };
    const auto outcome = fvdf::app::run_scenario(scenario, std::cout, &hooks);
    if (outcome.interrupted) {
      std::cout << "interrupted after step " << outcome.steps_completed << "/"
                << scenario.steps;
      if (!scenario.checkpoint_path.empty())
        std::cout << "; resume with transient.resume = "
                  << scenario.checkpoint_path;
      std::cout << '\n';
      return 3;
    }
    return outcome.converged ? 0 : 1;
  } catch (const fvdf::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
