// Event-engine throughput: how fast does the fabric simulator itself run?
//
// Workloads — a 64x64x8 device CG solve (4,096 PEs, the standard row), an
// optional 128x128x8 solve (16,384 PEs, the scaling row) and an opt-in
// 256x256x8 solve (65,536 PEs, the tile-sharding stress row), all
// tolerance 0, 10 iterations — executed at several worker-thread counts.
// For each run the bench reports host wall-clock, processed simulator
// events and events/second, checks that every thread count reproduces the
// single-thread solution bitwise, and writes the table to
// BENCH_sim_throughput.json (in the working directory, or --out PATH).
//
// Flags:
//   --out PATH            JSON output path (default BENCH_sim_throughput.json)
//   --csv PATH            also write one CSV row per run
//   --threads-sweep LIST  comma-separated thread counts (default 1,2,4,8),
//                         honored by every workload
//   --skip-large          measure only the 64x64x8 workload
//   --xl                  also measure the 256x256x8 workload (expensive;
//                         its rows land under "xl_workload" in the JSON)
//   --engine NAME         device-program engine: bytecode (default) | legacy
//   --layout RxC          force the shard grid (R tile rows x C tile cols;
//                         0 lets the cost model pick that dimension; the
//                         default is automatic: one shard at one thread,
//                         the cost-model 2D tiles at two or more)
//   --check-layout-identity
//                         additionally solve each workload under the auto
//                         2D layout, forced 1D row strips and a serial
//                         single shard and require bitwise-identical
//                         results — the layout-invariance gate
//                         scripts/check_scaling.sh runs on hosts too small
//                         to measure scaling
//   --reps N              repetitions per thread count; wall_seconds becomes
//                         the min across reps and wall_median / wall_stddev /
//                         reps columns are appended (after bitwise_identical,
//                         so existing field positions are stable)
//   --profile-host        attach the host-side profiler to every run and
//                         report its critical-path max-speedup bound plus
//                         per-tile stall attribution for the sweep's last
//                         thread count — lets scripts/check_scaling.sh tell
//                         "engine overhead" from "workload admits no
//                         parallelism", and which tile is the bottleneck
//
// `seed_baseline` in the JSON is the 64x64x8 workload measured on the
// pre-refactor serial engine (std::priority_queue, per-send payload
// allocation, word-at-a-time ramp delivery) on the same host, so the file
// records both the single-thread speedup of the engine overhaul and the
// multi-thread scaling of the sharded executor.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "fv/problem.hpp"
#include "telemetry/host_profiler.hpp"
#include "wse/shard_layout.hpp"

using namespace fvdf;

namespace {

// Pre-refactor serial engine on this host, 64x64x8 workload (see header).
constexpr f64 kSeedWallSeconds = 1.052;
constexpr u64 kSeedEvents = 1391439;
constexpr f64 kSeedEventsPerSec = 1.322e6;

// Same pre-refactor engine, 128x128x8 workload, best of 3 single-thread
// runs — the large rows get their own reference so speedup_vs_seed
// always compares like with like.
constexpr f64 kSeedLargeWallSeconds = 7.941;
constexpr u64 kSeedLargeEvents = 5566191;
constexpr f64 kSeedLargeEventsPerSec = 0.7009e6;

struct Workload {
  const char* name;
  i64 nx, ny, nz;
};

struct Run {
  const char* workload = nullptr;
  u32 threads = 1;
  f64 wall_seconds = 0; // min across reps
  u64 events = 0;
  f64 events_per_sec = 0;
  f64 speedup_vs_one_thread = 1.0;
  bool bitwise_identical = true; // vs the threads=1 run of the same workload
  f64 wall_median = 0;
  f64 wall_stddev = 0;
  u32 reps = 1;
  // --profile-host only (0 otherwise): critical-path max-speedup bound at
  // this thread count and its T -> infinity limit.
  f64 speedup_bound = 0;
  f64 speedup_bound_unbounded = 0;
};

core::SimEngine g_engine = core::SimEngine::Bytecode;
wse::ShardGrid g_grid{}; // {0,0} = automatic; --layout overrides

core::DataflowResult solve(const Workload& w, u32 threads,
                           telemetry::HostProfiler* profiler,
                           wse::ShardGrid grid) {
  const auto problem = FlowProblem::homogeneous_column(w.nx, w.ny, w.nz);
  core::DataflowConfig config;
  config.tolerance = 0.0f;
  config.max_iterations = 10;
  config.sim_threads = threads;
  config.engine = g_engine;
  config.shard_grid = grid;
  config.host_profiler = profiler;
  return core::solve_dataflow(problem, config);
}

bool same_bits(const std::vector<f32>& a, const std::vector<f32>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(f32)) == 0);
}

std::vector<u32> parse_sweep(const std::string& arg) {
  std::vector<u32> sweep;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const long v = std::strtol(item.c_str(), nullptr, 10);
    if (v < 1) {
      std::cerr << "bad --threads-sweep entry: " << item << '\n';
      std::exit(2);
    }
    sweep.push_back(static_cast<u32>(v));
  }
  if (sweep.empty()) {
    std::cerr << "--threads-sweep needs at least one thread count\n";
    std::exit(2);
  }
  return sweep;
}

std::vector<Run> measure(const Workload& w, const std::vector<u32>& sweep,
                         u32 reps, bool profile_host) {
  std::vector<Run> runs;
  core::DataflowResult reference; // first sweep entry (put 1 first)
  for (u32 threads : sweep) {
    telemetry::HostProfiler profiler; // re-armed per solve; last rep survives
    std::vector<f64> walls;
    walls.reserve(reps);
    core::DataflowResult result;
    for (u32 rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      result = solve(w, threads, profile_host ? &profiler : nullptr, g_grid);
      const auto stop = std::chrono::steady_clock::now();
      walls.push_back(std::chrono::duration<f64>(stop - start).count());
    }
    std::sort(walls.begin(), walls.end());

    Run run;
    run.workload = w.name;
    run.threads = threads;
    run.reps = reps;
    run.wall_seconds = walls.front();
    run.wall_median = reps % 2 == 1
                          ? walls[reps / 2]
                          : 0.5 * (walls[reps / 2 - 1] + walls[reps / 2]);
    f64 mean = 0;
    for (f64 s : walls) mean += s;
    mean /= reps;
    f64 var = 0;
    for (f64 s : walls) var += (s - mean) * (s - mean);
    run.wall_stddev = reps > 1 ? std::sqrt(var / (reps - 1)) : 0.0;
    run.events = result.fabric.events_processed;
    run.events_per_sec = static_cast<f64>(run.events) / run.wall_seconds;
    if (profiler.captured()) {
      run.speedup_bound = profiler.max_speedup_bound(threads);
      run.speedup_bound_unbounded = profiler.max_speedup_unbounded();
    }
    if (runs.empty()) {
      reference = std::move(result);
    } else {
      run.bitwise_identical = same_bits(result.delta, reference.delta) &&
                              same_bits(result.pressure, reference.pressure) &&
                              result.fabric == reference.fabric &&
                              result.iterations == reference.iterations;
      run.speedup_vs_one_thread = runs.front().wall_seconds / run.wall_seconds;
    }
    runs.push_back(run);

    std::cout << w.name << " threads=" << run.threads << ": "
              << run.wall_seconds << " s, " << run.events << " events, "
              << run.events_per_sec / 1e6 << " Mev/s, speedup vs 1-thread "
              << run.speedup_vs_one_thread
              << (run.bitwise_identical ? "" : "  [MISMATCH vs threads=1]")
              << '\n';
    if (reps > 1)
      std::cout << "  reps: " << reps << "  min " << run.wall_seconds
                << " s  median " << run.wall_median << " s  stddev "
                << run.wall_stddev << " s\n";
    if (profiler.captured())
      std::cout << "  critical-path bound: max speedup " << run.speedup_bound
                << "x at " << threads << " threads ("
                << run.speedup_bound_unbounded << "x unbounded)\n";
    // Per-tile stall attribution for the sweep's last entry: which tile the
    // gate should blame when the measured speedup misses the bound.
    if (profiler.captured() && threads == sweep.back() &&
        profiler.shards() > 1 && profiler.tile_cols() > 0) {
      for (u32 s = 0; s < profiler.shards(); ++s) {
        const telemetry::HostShardStats& st = profiler.shard_stats(s);
        const f64 total = static_cast<f64>(st.rounds_total());
        const auto pct = [&](u64 n) {
          return total > 0 ? 100.0 * static_cast<f64>(n) / total : 0.0;
        };
        const auto& rects = profiler.tile_rects();
        std::cout << "  tile (" << s / profiler.tile_cols() << ','
                  << s % profiler.tile_cols() << ')';
        if (s < rects.size())
          std::cout << " rows " << rects[s].row_begin << ".."
                    << rects[s].row_end - 1 << " cols " << rects[s].col_begin
                    << ".." << rects[s].col_end - 1;
        char bins[96];
        std::snprintf(bins, sizeof bins,
                      ": worked %5.1f%%  window %5.1f%%  backpr %5.1f%%  "
                      "starved %5.1f%%",
                      pct(st.rounds_worked), pct(st.rounds_window_limited),
                      pct(st.rounds_backpressure), pct(st.rounds_starved));
        std::cout << bins << "  events " << st.events << '\n';
      }
    }
  }
  return runs;
}

// The layout-invariance gate: the same workload solved under the
// cost-model 2D tiling, forced 1D row strips and a serial single shard
// must agree bit for bit (scripts/check_scaling.sh runs this on hosts that
// cannot demonstrate scaling — correctness is checkable even where speed
// is not). The tiles are named explicitly so that a one-thread check still
// runs them.
bool check_layout_identity(const Workload& w, u32 threads) {
  struct Named {
    const char* name;
    wse::ShardGrid grid;
  };
  const wse::ShardLayout tiles = wse::choose_shard_layout(w.nx, w.ny);
  const Named layouts[] = {
      {"auto-2d", wse::ShardGrid{tiles.tile_rows, tiles.tile_cols}},
      {"1d-strips", wse::ShardGrid{0, 1}},
      {"serial", wse::ShardGrid{1, 1}},
  };
  const auto reference = solve(w, 1, nullptr, layouts[2].grid);
  bool ok = true;
  for (const Named& layout : layouts) {
    const auto result = solve(w, threads, nullptr, layout.grid);
    const bool identical = same_bits(result.delta, reference.delta) &&
                           same_bits(result.pressure, reference.pressure) &&
                           result.fabric == reference.fabric &&
                           result.iterations == reference.iterations;
    std::cout << w.name << " layout " << layout.name << " threads=" << threads
              << ": " << (identical ? "identical to serial" : "MISMATCH")
              << '\n';
    ok &= identical;
  }
  return ok;
}

void write_runs_json(std::ofstream& json, const std::vector<Run>& runs,
                     f64 seed_events_per_sec, const char* indent) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    json << indent << "{\"threads\": " << run.threads
         << ", \"wall_seconds\": " << run.wall_seconds
         << ", \"events\": " << run.events
         << ", \"events_per_sec\": " << run.events_per_sec;
    // The xl workload has no pre-refactor measurement to compare against.
    if (seed_events_per_sec > 0)
      json << ", \"speedup_vs_seed\": "
           << run.events_per_sec / seed_events_per_sec;
    json << ", \"speedup_vs_one_thread\": " << run.speedup_vs_one_thread
         << ", \"bitwise_identical\": "
         << (run.bitwise_identical ? "true" : "false")
         << ", \"wall_median\": " << run.wall_median
         << ", \"wall_stddev\": " << run.wall_stddev
         << ", \"reps\": " << run.reps;
    if (run.speedup_bound > 0)
      json << ", \"speedup_bound\": " << run.speedup_bound
           << ", \"speedup_bound_unbounded\": " << run.speedup_bound_unbounded;
    json << "}" << (i + 1 < runs.size() ? "," : "") << '\n';
  }
}

} // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sim_throughput.json";
  std::string csv_path;
  std::vector<u32> sweep = {1, 2, 4, 8};
  bool skip_large = false;
  bool with_xl = false;
  bool layout_identity = false;
  long reps = 1;
  bool profile_host = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads-sweep") == 0 && i + 1 < argc) {
      sweep = parse_sweep(argv[++i]);
    } else if (std::strcmp(argv[i], "--skip-large") == 0) {
      skip_large = true;
    } else if (std::strcmp(argv[i], "--xl") == 0) {
      with_xl = true;
    } else if (std::strcmp(argv[i], "--check-layout-identity") == 0) {
      layout_identity = true;
    } else if (std::strcmp(argv[i], "--layout") == 0 && i + 1 < argc) {
      unsigned rows = 0;
      unsigned cols = 0;
      if (std::sscanf(argv[++i], "%ux%u", &rows, &cols) != 2) {
        std::cerr << "bad --layout (want RxC, e.g. 4x4 or 0x1): " << argv[i]
                  << '\n';
        return 2;
      }
      g_grid = wse::ShardGrid{static_cast<u32>(rows), static_cast<u32>(cols)};
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::strtol(argv[++i], nullptr, 10);
      if (reps < 1) {
        std::cerr << "bad --reps (want >= 1): " << argv[i] << '\n';
        return 2;
      }
    } else if (std::strcmp(argv[i], "--profile-host") == 0) {
      profile_host = true;
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "bytecode") {
        g_engine = core::SimEngine::Bytecode;
      } else if (name == "legacy") {
        g_engine = core::SimEngine::Legacy;
      } else {
        std::cerr << "bad --engine (want bytecode or legacy): " << name << '\n';
        return 2;
      }
    } else {
      std::cerr << "usage: micro_sim_throughput [--out PATH] [--csv PATH]"
                   " [--threads-sweep N,N,...] [--skip-large] [--xl]"
                   " [--engine bytecode|legacy] [--layout RxC]"
                   " [--check-layout-identity] [--reps N] [--profile-host]\n";
      return 2;
    }
  }
  if (profile_host && !wse::Fabric::host_profiling_compiled())
    std::cerr << "warning: --profile-host requested but this build has "
                 "-DFVDF_TELEMETRY=OFF; no bounds will be reported\n";

  const u32 hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "=== bench/micro_sim_throughput — event-engine throughput ===\n"
            << "hardware threads: " << hw << "\n\n";

  const Workload small{"64x64x8", 64, 64, 8};
  const Workload large{"128x128x8", 128, 128, 8};
  const Workload xl{"256x256x8", 256, 256, 8};

  std::vector<Run> runs =
      measure(small, sweep, static_cast<u32>(reps), profile_host);
  std::vector<Run> large_runs;
  if (!skip_large)
    large_runs = measure(large, sweep, static_cast<u32>(reps), profile_host);
  std::vector<Run> xl_runs;
  if (with_xl)
    xl_runs = measure(xl, sweep, static_cast<u32>(reps), profile_host);

  bool all_identical = true;
  for (const Run& run : runs) all_identical &= run.bitwise_identical;
  for (const Run& run : large_runs) all_identical &= run.bitwise_identical;
  for (const Run& run : xl_runs) all_identical &= run.bitwise_identical;

  if (layout_identity) {
    std::cout << "\n--- layout identity (auto 2D vs 1D strips vs serial) ---\n";
    all_identical &= check_layout_identity(small, sweep.back());
    if (!skip_large) all_identical &= check_layout_identity(large, sweep.back());
    if (with_xl) all_identical &= check_layout_identity(xl, sweep.back());
  }

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"sim_throughput\",\n"
       << "  \"workload\": \"64x64x8 device CG, tolerance 0, 10 iterations\",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"seed_baseline\": {\n"
       << "    \"note\": \"pre-refactor serial engine, same host and workload\",\n"
       << "    \"wall_seconds\": " << kSeedWallSeconds << ",\n"
       << "    \"events\": " << kSeedEvents << ",\n"
       << "    \"events_per_sec\": " << kSeedEventsPerSec << "\n"
       << "  },\n"
       << "  \"runs\": [\n";
  write_runs_json(json, runs, kSeedEventsPerSec, "    ");
  json << "  ],\n";
  if (!large_runs.empty()) {
    json << "  \"large_workload\": {\n"
         << "    \"workload\": \"128x128x8 device CG, tolerance 0, 10 iterations\",\n"
         << "    \"seed_baseline\": {\n"
         << "      \"note\": \"pre-refactor serial engine, same host and workload\",\n"
         << "      \"wall_seconds\": " << kSeedLargeWallSeconds << ",\n"
         << "      \"events\": " << kSeedLargeEvents << ",\n"
         << "      \"events_per_sec\": " << kSeedLargeEventsPerSec << "\n"
         << "    },\n"
         << "    \"runs\": [\n";
    write_runs_json(json, large_runs, kSeedLargeEventsPerSec, "      ");
    json << "    ]\n"
         << "  },\n";
  }
  if (!xl_runs.empty()) {
    json << "  \"xl_workload\": {\n"
         << "    \"workload\": \"256x256x8 device CG, tolerance 0, 10 iterations\",\n"
         << "    \"runs\": [\n";
    write_runs_json(json, xl_runs, 0.0, "      ");
    json << "    ]\n"
         << "  },\n";
  }
  json << "  \"all_thread_counts_bitwise_identical\": "
       << (all_identical ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "\nwrote " << out_path << '\n';

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    // New columns only ever append after bitwise_identical: check_scaling.sh
    // addresses wall_seconds and bitwise_identical by field position.
    csv << "workload,threads,wall_seconds,events,events_per_sec,"
           "speedup_vs_one_thread,bitwise_identical,wall_median,wall_stddev,"
           "reps\n";
    auto emit = [&](const std::vector<Run>& rs) {
      for (const Run& run : rs)
        csv << run.workload << ',' << run.threads << ',' << run.wall_seconds
            << ',' << run.events << ',' << run.events_per_sec << ','
            << run.speedup_vs_one_thread << ','
            << (run.bitwise_identical ? "true" : "false") << ','
            << run.wall_median << ',' << run.wall_stddev << ',' << run.reps
            << '\n';
    };
    emit(runs);
    emit(large_runs);
    emit(xl_runs);
    std::cout << "wrote " << csv_path << '\n';
  }
  return all_identical ? 0 : 1;
}
