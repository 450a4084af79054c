// fabric_profile — run one instrumented dataflow solve and emit the full
// telemetry bundle (docs/observability.md):
//
//   metrics.json    counters, per-phase cycle totals, histograms
//   trace.json      Chrome trace events (load in Perfetto / about:tracing)
//   progress.json   residual history with per-iteration cycle timings
//   heatmap_*.ppm   per-PE traffic / stall / occupancy / delivery maps
//   heatmap_*.csv   the same grids as numbers
//   links.csv       per-PE, per-link word and message counts
//
//   ./tools/fabric_profile --fabric 20x20 --nz 8 --out profile
//   ./tools/fabric_profile --solver chebyshev --level metrics
//   ./tools/fabric_profile --level off --reps 5     # timing mode, no bundle
//   ./tools/fabric_profile --host --sim-threads 4   # + host-side profiler
//
// Every file is deterministic: the same scenario produces byte-identical
// output at any --sim-threads value. At --level off no session is attached
// and no bundle is written — only per-rep wall time is printed (with a
// min/median/stddev summary when --reps > 1), which is what the CI
// telemetry-overhead gate compares across build configs.
//
// --host additionally attaches the host-side execution profiler
// (docs/observability.md, "Host profiling"): worker timelines, per-shard
// stall attribution, the bytecode hot-spot table and the critical-path
// speedup bound, written as host_profile.json + host_trace.json into the
// output directory (at any --level, including off — the host profile is
// wall-clock data and lives outside the deterministic bundle). With
// --reps > 1 the profile covers the last rep.
//
// Exit status: 0 on success, 2 on usage / setup errors.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "core/solver.hpp"
#include "fv/operator.hpp"
#include "fv/problem.hpp"
#include "solver/chebyshev.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/session.hpp"
#include "wse/fabric.hpp"

using namespace fvdf;

namespace {

void print_summary(const telemetry::Session& session,
                   const core::DataflowResult& result) {
  const auto& info = session.run_info();
  std::cout << "solve: " << result.iterations << " iterations, "
            << (result.converged ? "converged" : "NOT converged") << ", "
            << info.total_cycles << " cycles (" << info.seconds * 1e3
            << " ms device time)\n";
  const auto phases = session.reference_phase_cycles();
  std::cout << "phase breakdown on PE (0,0):\n";
  for (u32 p = 0; p < telemetry::kNumPhases; ++p) {
    if (phases[p] == 0) continue;
    std::cout << "  " << to_string(static_cast<telemetry::Phase>(p)) << ": "
              << phases[p] << " cycles ("
              << 100.0 * phases[p] / info.total_cycles << "%)\n";
  }
}

// min/median/mean/stddev over the per-rep wall times: a single mean hides
// scheduler noise, and the overhead gates compare medians.
void print_rep_stats(std::vector<f64> walls_ms) {
  std::sort(walls_ms.begin(), walls_ms.end());
  const std::size_t n = walls_ms.size();
  const f64 min = walls_ms.front();
  const f64 median = n % 2 == 1 ? walls_ms[n / 2]
                                : 0.5 * (walls_ms[n / 2 - 1] + walls_ms[n / 2]);
  f64 mean = 0;
  for (f64 w : walls_ms) mean += w;
  mean /= static_cast<f64>(n);
  f64 var = 0;
  for (f64 w : walls_ms) var += (w - mean) * (w - mean);
  const f64 stddev = n > 1 ? std::sqrt(var / static_cast<f64>(n - 1)) : 0.0;
  std::cout << "reps: " << n << "  min " << min << " ms  median " << median
            << " ms  mean " << mean << " ms  stddev " << stddev << " ms\n";
}

} // namespace

int main(int argc, char** argv) {
  std::string fabric = "20x20";
  i64 nz = 8;
  i64 iters = 50;
  f64 tolerance = 0.0;
  std::string solver = "cg";
  std::string level = "trace";
  i64 pe_stride = 1;
  i64 event_sample = 1;
  i64 sim_threads = 1;
  i64 reps = 1;
  bool host = false;
  std::string out = "fabric_profile_out";

  CliParser cli("fabric_profile",
                "Profile a dataflow solve: phase spans, per-PE/per-link "
                "metrics, heatmaps and a Perfetto-loadable Chrome trace.");
  cli.add_string("fabric", &fabric, "fabric extent WxH (one PE per column)");
  cli.add_i64("nz", &nz, "column depth (cells per PE)");
  cli.add_i64("iters", &iters, "max solver iterations");
  cli.add_f64("tolerance", &tolerance, "epsilon on the global r^T r (0 = run to iters)");
  cli.add_string("solver", &solver, "device program: cg | chebyshev");
  cli.add_string("level", &level, "telemetry level: off | metrics | trace");
  cli.add_i64("pe-stride", &pe_stride, "phase-mark sampling stride over PEs");
  cli.add_i64("event-sample", &event_sample, "keep every Nth raw event at level trace");
  cli.add_i64("sim-threads", &sim_threads, "simulator worker threads (0 = hw)");
  cli.add_i64("reps", &reps, "solve repetitions; wall time printed per rep");
  cli.add_flag("host", &host,
               "attach the host-side profiler (worker timelines, stall "
               "attribution, critical-path bound) and write host_profile.json");
  cli.add_string("out", &out, "output directory for the bundle");

  try {
    if (!cli.parse(argc, argv)) return 0;

    i64 width = 0, height = 0;
    if (!parse_extent(fabric, width, height)) {
      std::cerr << "error: bad --fabric '" << fabric << "' (expected WxH)\n"
                << cli.usage();
      return 2;
    }
    if (nz < 1 || iters < 1 || pe_stride < 1 || event_sample < 1 ||
        sim_threads < 0 || reps < 1) {
      std::cerr << "error: --nz/--iters/--pe-stride/--event-sample/--reps must be >= 1\n";
      return 2;
    }
    const bool chebyshev = solver == "chebyshev";
    if (!chebyshev && solver != "cg") {
      std::cerr << "error: unknown --solver '" << solver << "'\n";
      return 2;
    }
    const bool off = level == "off";
    if (!off && level != "metrics" && level != "trace") {
      std::cerr << "error: unknown --level '" << level << "'\n";
      return 2;
    }

    telemetry::TelemetryConfig tconfig;
    tconfig.level =
        level == "trace" ? telemetry::Level::Trace : telemetry::Level::Metrics;
    tconfig.sampling.pe_stride = static_cast<u32>(pe_stride);
    tconfig.sampling.event_sample_period = static_cast<u32>(event_sample);

    const auto problem = FlowProblem::homogeneous_column(width, height, nz);
    // At --level off no session is attached at all: the fabric's telemetry
    // hooks see a null collector, which is the configuration the CI
    // overhead gate times (scripts/check_telemetry_overhead.sh).
    std::optional<telemetry::Session> session;
    telemetry::HostProfiler profiler;
    if (host && !wse::Fabric::host_profiling_compiled())
      std::cerr << "warning: --host requested but this build has "
                   "-DFVDF_TELEMETRY=OFF; no host profile will be captured\n";
    core::DataflowResult result;
    std::vector<f64> walls_ms;
    walls_ms.reserve(static_cast<std::size_t>(reps));
    for (i64 rep = 0; rep < reps; ++rep) {
      if (!off) session.emplace(tconfig); // finalize() is once-per-run
      const auto t0 = std::chrono::steady_clock::now();
      if (chebyshev) {
        const auto sys = problem.discretize<f64>();
        const MatrixFreeOperator<f64> op(sys);
        core::ChebyshevDeviceConfig config;
        config.bounds = estimate_spectral_bounds<f64>(
            [&](const f64* in, f64* o) { op.apply(in, o); },
            static_cast<std::size_t>(sys.cell_count()));
        config.max_iterations = static_cast<u64>(iters);
        config.tolerance = static_cast<f32>(tolerance);
        config.sim_threads = static_cast<u32>(sim_threads);
        config.telemetry = session ? &*session : nullptr;
        config.host_profiler = host ? &profiler : nullptr;
        result = core::solve_dataflow_chebyshev(problem, config);
      } else {
        core::DataflowConfig config;
        config.max_iterations = static_cast<u64>(iters);
        config.tolerance = static_cast<f32>(tolerance);
        config.sim_threads = static_cast<u32>(sim_threads);
        config.telemetry = session ? &*session : nullptr;
        config.host_profiler = host ? &profiler : nullptr;
        result = core::solve_dataflow(problem, config);
      }
      const auto t1 = std::chrono::steady_clock::now();
      const f64 ms = std::chrono::duration<f64, std::milli>(t1 - t0).count();
      walls_ms.push_back(ms);
      std::cout << "rep " << rep << ": " << ms << " ms wall, "
                << result.iterations << " iterations\n";
    }
    if (walls_ms.size() > 1) print_rep_stats(walls_ms);

    if (session) {
      print_summary(*session, result);
      const auto written = session->write_bundle(out);
      std::cout << "bundle (" << written.size() << " files):\n";
      for (const std::string& path : written) std::cout << "  " << path << '\n';
    }
    if (host && profiler.captured()) {
      profiler.print_summary(std::cout, static_cast<u32>(sim_threads));
      const auto written = profiler.write(out);
      std::cout << "host profile (" << written.size() << " files):\n";
      for (const std::string& path : written) std::cout << "  " << path << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
