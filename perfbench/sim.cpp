// sim-serial / sim-4t: back-to-back 64x64x8 dataflow cases from one
// in-process caller, the way tools/fvdf_sim runs one (parse -> build ->
// app::run_scenario). The traced run pairs every case with the same case
// run through the public calls solve_dataflow makes, each wrapped in a
// span.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "checks.hpp"
#include "common/config.hpp"
#include "core/bytecode_program.hpp"
#include "core/solver.hpp"
#include "fv/residual.hpp"
#include "solver/blas.hpp"
#include "telemetry/host_profiler.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fvdf;

namespace {

constexpr i64 kNx = 64, kNy = 64, kNz = 8;
constexpr u64 kIterations = 10;
// Exact device work of every case (the lognormal seed changes the
// coefficients, never the instruction stream or the message schedule).
constexpr CaseWork kExpected{1'391'439, 241'815.5, 267'584, kIterations};
constexpr u32 kSetupReps = 3;

std::string case_text(i64 perm_seed, u32 threads) {
  std::ostringstream out;
  out << "[mesh]\nnx = " << kNx << "\nny = " << kNy << "\nnz = " << kNz << "\n\n"
      << "[perm]\nkind = lognormal\nseed = " << perm_seed << "\n\n"
      << "[solver]\nbackend = dataflow\ntolerance = 0\nmax_iterations = "
      << kIterations << "\nverify = true\nsim_threads = " << threads << "\n";
  return out.str();
}

struct CaseResult {
  f64 wall_s = 0;
  std::vector<f64> pressure;
  LoggedCase logged;
};

/// One case exactly as fvdf_sim runs it.
CaseResult run_case(const std::string& text) {
  CaseResult r;
  const f64 t0 = now_s();
  const Config config = Config::parse_string(text);
  const app::Scenario scenario = app::scenario_from_config(config);
  std::ostringstream log;
  log.precision(17); // device seconds round-trip exactly
  app::ScenarioOutcome outcome = app::run_scenario(scenario, log);
  r.wall_s = now_s() - t0;
  r.pressure = std::move(outcome.pressure);
  r.logged = parse_case_log(log.str());
  return r;
}

/// The DataflowConfig run_scenario builds for a steady dataflow case.
core::DataflowConfig dataflow_config(const app::Scenario& scenario) {
  core::DataflowConfig config;
  config.tolerance = static_cast<f32>(scenario.tolerance);
  config.max_iterations = scenario.max_iterations;
  config.sim_threads = scenario.sim_threads;
  config.verify_preflight = scenario.verify;
  return config;
}

struct TracedCase {
  f64 wall_s = 0;
  std::vector<f64> pressure;
  CaseWork work;
  wse::FabricStats fabric;
  OpCounters counters;
  telemetry::HostProfiler profiler;
};

u32 dirichlet_count(const DiscreteSystem<f32>& sys, i64 x, i64 y) {
  u32 count = 0;
  for (i64 z = 0; z < sys.nz; ++z)
    if (sys.dirichlet[static_cast<std::size_t>((z * sys.ny + y) * sys.nx + x)])
      ++count;
  return count;
}

/// The same case as run_case, split into the calls solve_dataflow makes
/// (core/solver.cpp), each under its own span. Results are bitwise those
/// of run_case (checked per pair).
void run_case_traced(const std::string& text, u64 unit, Spans& spans,
                     TracedCase& out) {
  const f64 t0 = now_s();
  const int root = spans.begin("case", unit);

  int s = spans.begin("app.parse_s", unit, root);
  const Config config = Config::parse_string(text);
  spans.end(s);

  s = spans.begin("app.build_s", unit, root);
  auto problem = app::problem_from_config(config);
  const app::Scenario scenario = app::scenario_from_config(config, problem);
  spans.end(s);

  const core::DataflowConfig dcfg = dataflow_config(scenario);
  s = spans.begin("core.prepare_s", unit, root);
  const DiscreteSystem<f32> sys = problem->discretize<f32>();
  const std::vector<f64> p0 = problem->initial_pressure();
  spans.end(s);

  auto cache = std::make_shared<core::ProgramCache>();
  const auto pe_config = [&](i64 x, i64 y) {
    core::CgPeConfig c;
    c.nz = static_cast<u32>(kNz);
    c.mode = dcfg.flux_mode;
    c.max_iterations = dcfg.max_iterations;
    c.tolerance = dcfg.tolerance;
    c.init = core::build_pe_init(*problem, sys, x, y, dcfg.flux_mode, nullptr, &p0);
    return c;
  };
  const wse::ProgramFactory factory =
      [&](wse::PeCoord coord) -> std::unique_ptr<wse::PeProgram> {
    return std::make_unique<core::BytecodeCgProgram>(
        pe_config(coord.x, coord.y), coord, kNx, kNy, dcfg.memory, cache);
  };

  // Lower each distinct PE shape once, as the first factory pass would.
  s = spans.begin("core.lower_s", unit, root);
  const bool with_source = !sys.source.empty();
  for (i64 y = 0; y < kNy; ++y)
    for (i64 x = 0; x < kNx; ++x) {
      const core::LoweringSite site = core::plan_site(
          {x, y}, kNx, kNy, dcfg.memory, static_cast<u32>(kNz), dcfg.flux_mode,
          dirichlet_count(sys, x, y), false, with_source);
      cache->get_or_lower(core::ProgramCache::key_for(site),
                          [&] { return core::lower_cg(pe_config(x, y), site); });
    }
  spans.end(s);

  s = spans.begin("wse.fabric_setup_s", unit, root);
  auto fabric_owner = std::make_unique<wse::Fabric>(kNx, kNy, dcfg.timing,
                                                    dcfg.memory, dcfg.shard_grid);
  wse::Fabric& fabric = *fabric_owner;
  fabric.set_threads(dcfg.sim_threads);
  spans.end(s);

  s = spans.begin("analysis.verify_s", unit, root);
  const analysis::VerifyReport verdict = fabric.verify(factory);
  spans.end(s);
  FVDF_CHECK_MSG(verdict.ok(), "verifier rejected the CG program:\n" << verdict.summary());

  if (fabric.shard_count() > 1) {
    s = spans.begin("analysis.plan_s", unit, root);
    fabric.set_channel_lookahead(fabric.plan_channel_lookahead(factory));
    spans.end(s);
  }
  fabric.set_host_profiler(&out.profiler);

  s = spans.begin("wse.fabric_setup_s", unit, root);
  fabric.load(factory);
  spans.end(s);

  s = spans.begin("wse.run_s", unit, root);
  const wse::Fabric::RunResult run = fabric.run(dcfg.max_cycles);
  spans.end(s);
  FVDF_CHECK_MSG(run.all_halted, "traced case did not complete");

  // Readback as core/solver.cpp's read_back does it.
  s = spans.begin("wse.readback_s", unit, root);
  out.pressure.assign(static_cast<std::size_t>(kNx * kNy * kNz), 0.0);
  for (i64 y = 0; y < kNy; ++y)
    for (i64 x = 0; x < kNx; ++x) {
      wse::PeMemory probe(dcfg.memory.capacity_bytes, dcfg.memory.reserved_bytes);
      const core::PeLayout layout =
          core::PeLayout::plan(probe, static_cast<u32>(kNz), dcfg.flux_mode,
                               dirichlet_count(sys, x, y), false, with_source);
      auto& mem = fabric.pe_memory(x, y);
      for (i64 z = 0; z < kNz; ++z) {
        const auto k = static_cast<std::size_t>((z * kNy + y) * kNx + x);
        const f32 dz = mem.load(layout.ysol.offset_words + static_cast<u32>(z));
        out.pressure[k] = static_cast<f64>(static_cast<f32>(p0[k]) + dz);
      }
      if (x == 0 && y == 0)
        out.work.iterations =
            static_cast<u64>(mem.load(layout.result.offset_words));
    }
  out.fabric = fabric.stats();
  out.counters = fabric.total_counters();
  spans.end(s);

  s = spans.begin("wse.teardown_s", unit, root);
  fabric_owner.reset();
  spans.end(s);

  s = spans.begin("app.residual_s", unit, root);
  const std::vector<f64> residual = compute_residual(*problem, out.pressure);
  const f64 norm = blas::norm2(residual.data(), residual.size());
  spans.end(s);
  FVDF_CHECK_MSG(norm == norm, "residual norm is NaN");

  spans.end(root);
  out.wall_s = now_s() - t0;
  out.work.events = out.fabric.events_processed;
  out.work.device_cycles = run.cycles;
  out.work.messages = out.fabric.messages_sent;
}

f64 clock_hz() { return wse::TimingParams{}.clock_hz; }

} // namespace

void run_sim(const RunOptions& options, u32 threads, RunReport& report) {
  u64 stream = 0;
  const auto next_case = [&] { return case_text(case_seed(options.seed, stream++), threads); };

  // --- Set-up: the first kSetupReps cases, each timed whole (the first one
  // pays the process's first touch of the fabric and allocator). ---
  const Usage u_start = Usage::now();
  std::vector<f64> setup;
  std::string warm_text;
  CaseResult warm;
  for (u32 i = 0; i < kSetupReps; ++i) {
    const std::string text = next_case();
    CaseResult r = run_case(text);
    Watchdog::beat();
    setup.push_back(r.wall_s);
    ++report.attempted;
    report.expect(check_case_log(r.logged, kExpected, clock_hz()));
    if (i == 0) {
      warm_text = text;
      warm = std::move(r);
    }
  }
  const Usage u_setup = Usage::now() - u_start;

  // --- Reference re-solve of the first warm-up case, serial and direct, off
  // the clock: exact event/cycle counts, and bitwise identity of the
  // threads-wide run_scenario result with the serial engine. ---
  {
    const Config config = Config::parse_string(warm_text);
    const app::Scenario scenario = app::scenario_from_config(config);
    core::DataflowConfig dcfg = dataflow_config(scenario);
    dcfg.sim_threads = 1;
    const core::DataflowResult ref = core::solve_dataflow(*scenario.problem, dcfg);
    Watchdog::beat();
    ++report.attempted;
    const CaseWork work{ref.fabric.events_processed, ref.device_cycles,
                        ref.fabric.messages_sent, ref.iterations};
    report.expect(check_case_work(work, kExpected));
    report.expect(check_bitwise(warm.pressure,
                                std::vector<f64>(ref.pressure.begin(), ref.pressure.end()),
                                "warm-up case vs serial re-solve"));
  }

  // --- Timed window: closed loop of cases until the budget is spent. The
  // traced run alternates a traced and an untraced case on the same seed. ---
  Spans spans;
  std::vector<f64> latency, traced_latency, completions;
  std::vector<std::unique_ptr<TracedCase>> traced;
  const Usage u0 = Usage::now();
  const f64 steal0 = host_steal_s();
  const f64 t_start = now_s();
  f64 t_end = t_start;
  u64 unit = 0;
  while (now_s() - t_start < options.seconds) {
    const std::string text = next_case();
    ++report.attempted;
    if (!options.trace) {
      const CaseResult r = run_case(text);
      latency.push_back(r.wall_s);
      report.expect(check_case_log(r.logged, kExpected, clock_hz()));
    } else {
      auto t = std::make_unique<TracedCase>();
      CaseResult r;
      const bool traced_first = (unit % 2) == 0; // alternate the order
      if (!traced_first) r = run_case(text);
      run_case_traced(text, unit, spans, *t);
      if (traced_first) r = run_case(text);
      latency.push_back(r.wall_s);
      traced_latency.push_back(t->wall_s);
      std::string err = check_case_log(r.logged, kExpected, clock_hz());
      if (err.empty()) err = check_case_work(t->work, kExpected);
      if (err.empty()) err = check_bitwise(t->pressure, r.pressure, "traced vs run_scenario");
      report.expect(err);
      traced.push_back(std::move(t));
    }
    ++unit;
    Watchdog::beat();
    t_end = now_s();
    completions.push_back(t_end);
  }
  const Usage u_window = Usage::now() - u0;
  const f64 window = t_end - t_start;
  const f64 units = static_cast<f64>(latency.size());

  report.set("setup_s", median(setup));
  report.set("latency_p50_s", median(latency));
  report.set("solves_per_s", batch_rate(completions, t_start));
  report.set("cpu_s_per_solve", u_window.cpu_s() / units);
  report.set("proc.minor_faults", static_cast<f64>(u_setup.minor_faults));
  report.set("proc.cpu_sys_s", u_setup.sys_s);
  report.set("proc.peak_rss_mb", Usage::now().peak_rss_mb);

  diag("threads", static_cast<f64>(threads));
  diag("setup samples", static_cast<f64>(setup.size()));
  diag("setup minor faults", static_cast<f64>(u_setup.minor_faults));
  diag("setup cpu user/sys s", std::to_string(u_setup.user_s) + " / " +
                                   std::to_string(u_setup.sys_s));
  diag("latency samples", units);
  const f64 p90 = quantile(latency, 0.9);
  diag("latency p90 s", p90);
  diag("solves_per_s over the whole window", units / window);
  diag("latency samples beyond p90", static_cast<f64>(std::count_if(
                                         latency.begin(), latency.end(),
                                         [&](f64 v) { return v > p90; })));
  diag("latency within-run iqr frac", iqr_frac(latency));
  std::string series;
  for (const f64 v : latency) series += std::to_string(v).substr(0, 5) + " ";
  diag("latency series s", series);
  diag("window s", window);
  diag("window minor faults", static_cast<f64>(u_window.minor_faults));
  diag("peak rss mb", Usage::now().peak_rss_mb);
  diag("window host steal s (all vCPUs)", host_steal_s() - steal0);
  diag("window cpu user/sys s", std::to_string(u_window.user_s) + " / " +
                                    std::to_string(u_window.sys_s));
  diag("device_s (simulated, exact)", kExpected.device_cycles / clock_hz());
  if (!options.trace) {
    diag("events_per_s", static_cast<f64>(kExpected.events) * units / window);
    return;
  }

  // --- Per-layer report: medians of span self times over traced cases. ---
  const auto self = spans.self_times();
  const auto med = [&](const char* name) {
    const auto it = self.find(name);
    if (it == self.end()) return 0.0;
    // fabric_setup has two spans per case (construct, load): sum per case.
    const std::size_t per_case = it->second.size() / traced.size();
    std::vector<f64> sums;
    for (std::size_t i = 0; i + per_case <= it->second.size(); i += per_case) {
      f64 sum = 0;
      for (std::size_t j = 0; j < per_case; ++j) sum += it->second[i + j];
      sums.push_back(sum);
    }
    return median(sums);
  };
  f64 layer_sum = 0;
  for (const char* name :
       {"app.parse_s", "app.build_s", "core.prepare_s", "core.lower_s",
        "wse.fabric_setup_s", "analysis.verify_s", "analysis.plan_s", "wse.run_s",
        "wse.readback_s", "wse.teardown_s", "app.residual_s"}) {
    report.set(name, med(name));
    layer_sum += med(name);
    diag(std::string("self ") + name, med(name));
  }
  diag("layer self-time sum s", layer_sum);
  diag("traced case p50 s", median(traced_latency));
  diag("untraced case p50 s (paired)", median(latency));
  std::vector<f64> ns_per_event, unattributed;
  const auto& roots = self.at("case");
  for (std::size_t i = 0; i < traced.size(); ++i)
    unattributed.push_back(roots[i] / traced[i]->wall_s);
  const std::vector<f64>& runs = self.at("wse.run_s");
  for (std::size_t i = 0; i < traced.size(); ++i)
    ns_per_event.push_back(runs[i] * 1e9 /
                           static_cast<f64>(traced[i]->work.events));
  report.set("wse.ns_per_event", median(ns_per_event));
  report.set("trace.unattributed_frac", median(unattributed));
  report.set("trace.overhead_frac", median(traced_latency) / median(latency) - 1.0);

  const TracedCase& last = *traced.back();
  report.set("wse.events", static_cast<f64>(last.fabric.events_processed));
  report.set("wse.messages", static_cast<f64>(last.fabric.messages_sent));
  report.set("wse.wavelet_hops", static_cast<f64>(last.fabric.wavelet_hops));
  report.set("wse.flits_stalled", static_cast<f64>(last.fabric.flits_stalled));
  report.set("wse.tasks_run", static_cast<f64>(last.fabric.tasks_run));
  report.set("core.iterations", static_cast<f64>(last.work.iterations));
  report.set("core.flops", static_cast<f64>(last.counters.total_flops()));
  report.set("core.memory_bytes", static_cast<f64>(last.counters.memory_bytes()));
  report.set("core.fabric_bytes", static_cast<f64>(last.counters.fabric_bytes()));
  report.set("core.device_cycles", last.work.device_cycles);

  const std::string path = options.work_dir + "/perfbench-trace-" +
                           options.workload + "-" + std::to_string(options.seed) + ".json";
  if (spans.write(path)) diag("trace file", path);

  if (!last.profiler.captured()) return; // built with -DFVDF_TELEMETRY=OFF
  std::vector<f64> state_s[telemetry::kNumHostStates];
  std::vector<f64> rounds, worked_frac, limited, starved, cross, bound;
  f64 round_base = 0;
  for (const auto& t : traced) {
    const telemetry::HostProfiler& p = t->profiler;
    for (u32 st = 0; st < telemetry::kNumHostStates; ++st) {
      f64 total = 0;
      for (u32 w = 0; w < p.workers(); ++w)
        total += p.worker_timeline(w).total(static_cast<telemetry::HostState>(st));
      state_s[st].push_back(total);
    }
    u64 worked = 0, all = 0, lim = 0, sta = 0, out = 0;
    for (u32 sh = 0; sh < p.shards(); ++sh) {
      const telemetry::HostShardStats& ss = p.shard_stats(sh);
      worked += ss.rounds_worked;
      all += ss.rounds_total();
      lim += ss.rounds_window_limited;
      sta += ss.rounds_starved;
      out += ss.outbound_events;
    }
    rounds.push_back(static_cast<f64>(p.rounds()));
    worked_frac.push_back(all ? static_cast<f64>(worked) / static_cast<f64>(all) : 0);
    round_base = static_cast<f64>(all);
    limited.push_back(static_cast<f64>(lim));
    starved.push_back(static_cast<f64>(sta));
    cross.push_back(static_cast<f64>(out));
    bound.push_back(p.max_speedup_bound(4));
  }
  using telemetry::HostState;
  const auto state = [&](HostState st) {
    return median(state_s[static_cast<std::size_t>(st)]);
  };
  report.set("wse.worker_run_s", state(HostState::Run));
  report.set("wse.worker_barrier_s", state(HostState::Barrier));
  report.set("wse.worker_merge_s", state(HostState::Merge));
  report.set("wse.worker_park_s", state(HostState::Park));
  report.set("wse.worker_drive_s", state(HostState::Drive));
  report.set("wse.rounds", median(rounds));
  report.set("wse.rounds_worked_frac", median(worked_frac));
  report.set("wse.rounds_window_limited", median(limited));
  report.set("wse.rounds_starved", median(starved));
  report.set("wse.cross_shard_events", median(cross));
  report.set("wse.speedup_bound_4t", median(bound));
  diag("shard-rounds (worked_frac base)", round_base);
  diag("shards x workers", std::to_string(last.profiler.shards()) + " x " +
                               std::to_string(last.profiler.workers()));

}

} // namespace perfbench
