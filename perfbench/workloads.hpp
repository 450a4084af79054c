#pragma once
// The benchmark's workloads and the metric names they report. Every
// workload prints every end-to-end metric (untraced run) or every
// per-layer metric (traced run); a layer a workload never reaches
// reports 0. BENCHMARK.json lists the same names.

#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},         {"latency_p50_s", "s"},
      {"solves_per_s", "1/s"},  {"cpu_s_per_solve", "s"},
  };
  return defs;
}

inline const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // Self times of the calls one case makes, in pipeline order.
      {"app.parse_s", "s"},
      {"app.build_s", "s"},
      {"core.prepare_s", "s"},
      {"core.lower_s", "s"},
      {"wse.fabric_setup_s", "s"},
      {"analysis.verify_s", "s"},
      {"analysis.plan_s", "s"},
      {"wse.run_s", "s"},
      {"wse.ns_per_event", "ns"},
      {"wse.readback_s", "s"},
      {"wse.teardown_s", "s"},
      {"app.residual_s", "s"},
      // Exact fabric counts of one case.
      {"wse.events", "count"},
      {"wse.messages", "count"},
      {"wse.wavelet_hops", "count"},
      {"wse.flits_stalled", "count"},
      {"wse.tasks_run", "count"},
      // Parallel engine (telemetry::HostProfiler; 0 on the serial path).
      {"wse.worker_run_s", "s"},
      {"wse.worker_barrier_s", "s"},
      {"wse.worker_merge_s", "s"},
      {"wse.worker_park_s", "s"},
      {"wse.worker_drive_s", "s"},
      {"wse.rounds", "count"},
      {"wse.rounds_worked_frac", "ratio"},
      {"wse.rounds_window_limited", "count"},
      {"wse.rounds_starved", "count"},
      {"wse.cross_shard_events", "count"},
      {"wse.speedup_bound_4t", "x"},
      // Device model (exact).
      {"core.iterations", "count"},
      {"core.flops", "count"},
      {"core.memory_bytes", "B"},
      {"core.fabric_bytes", "B"},
      {"core.device_cycles", "cycles"},
      // Solve daemon, seen from its clients.
      {"serve.latency_p90_s", "s"},
      {"serve.transport_s", "s"},
      {"serve.queue_wait_p50_s", "s"},
      {"serve.queue_wait_p90_s", "s"},
      {"serve.setup_hot_s", "s"},
      {"serve.setup_cold_s", "s"},
      {"serve.solve_s", "s"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_evictions", "count"},
      {"serve.rejected", "count"},
      {"serve.queue_depth_max", "count"},
      // Process: set-up faults and sys CPU, and the whole run's peak
      // resident set (per layer only: on serve-mixed it flips by ~12 MB
      // with the daemon's worker scheduling, see README).
      {"proc.minor_faults", "count"},
      {"proc.cpu_sys_s", "s"},
      {"proc.peak_rss_mb", "MB"},
      // The traced run itself.
      {"trace.overhead_frac", "ratio"},
      {"trace.unattributed_frac", "ratio"},
  };
  return defs;
}

struct RunOptions {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build"; // socket and trace file live here
};

/// One run's verdict and numbers. `metrics` starts with every name of the
/// run's metric set at 0, in the BENCHMARK.json order.
struct RunReport {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;
  Metrics metrics;

  explicit RunReport(bool trace) {
    for (const MetricDef& d : trace ? layer_metrics() : end_to_end_metrics())
      metrics.add(d.name, d.unit);
  }
  /// Records one output check: a non-empty reason counts as a failure.
  void expect(const std::string& error) {
    if (error.empty()) return;
    if (errors.size() < 8) errors.push_back(error);
    ++failed;
  }
  bool correct() const { return failed == 0; }
  /// Sets a metric of this run's set; names of the other set are ignored,
  /// so a workload can report both and the run keeps the ones it prints.
  void set(const std::string& name, f64 value) { metrics.update(name, value); }
};

void run_sim(const RunOptions& options, u32 threads, RunReport& report);
void run_serve(const RunOptions& options, RunReport& report);

} // namespace perfbench
