// The steady-state fast-forward (wse/fast_forward.hpp) against full
// simulation: every case runs with replay on and off and must match bit
// for bit — solution, residual, iterations, cycles, FabricStats, every
// PE's op counters and arena bytes, and the Metrics-level telemetry — and
// the cases that should replay must report replayed periods.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bytecode_program.hpp"
#include "core/solver.hpp"
#include "fv/diagonal.hpp"
#include "fv/problem.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/session.hpp"
#include "wse/fabric.hpp"
#include "wse/trace.hpp"

#include "bc_test_program.hpp"

namespace fvdf {
namespace {

using core::DataflowConfig;
using core::FluxMode;

bool same_bits(const std::vector<f32>& a, const std::vector<f32>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(f32)) == 0);
}

// --- solver level ----------------------------------------------------------

void expect_same_result(const core::DataflowResult& a, const core::DataflowResult& b) {
  EXPECT_TRUE(same_bits(a.pressure, b.pressure));
  EXPECT_TRUE(same_bits(a.delta, b.delta));
  EXPECT_EQ(std::memcmp(&a.final_rr, &b.final_rr, sizeof(f32)), 0);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.device_cycles, b.device_cycles);
  EXPECT_TRUE(a.fabric == b.fabric);
  EXPECT_EQ(a.counters.summary(), b.counters.summary());
  EXPECT_EQ(a.residual_history, b.residual_history);
}

struct Solved {
  core::DataflowResult result;
  std::string metrics;
};

template <typename Config, typename Solve>
Solved solve_with_metrics(const FlowProblem& problem, Config config, Solve solve) {
  telemetry::Session session({telemetry::Level::Metrics});
  config.telemetry = &session;
  Solved out{solve(problem, config), {}};
  out.metrics = session.metrics_json();
  return out;
}

/// Solves with replay on and off; returns the periods replayed.
u64 expect_cg_replay_exact(const FlowProblem& problem, DataflowConfig config) {
  const auto solve = [](const FlowProblem& p, const DataflowConfig& c) {
    return core::solve_dataflow(p, c);
  };
  config.fast_forward = false;
  const Solved full = solve_with_metrics(problem, config, solve);
  config.fast_forward = true;
  const Solved fast = solve_with_metrics(problem, config, solve);
  EXPECT_EQ(full.result.replayed_periods, 0u);
  expect_same_result(full.result, fast.result);
  EXPECT_EQ(full.metrics, fast.metrics);
  return fast.result.replayed_periods;
}

// --- fabric level ----------------------------------------------------------

/// A CG or Chebyshev device program on a caller-owned fabric, as the
/// solver builds it.
struct DeviceCase {
  FlowProblem problem;
  FluxMode mode = FluxMode::Fused;
  u64 max_iterations = 30;
  f32 tolerance = 0.0f;
  bool jacobi = false;
  f32 diagonal_shift = 0.0f;
  bool chebyshev = false;
  wse::TimingParams timing{};
};

wse::ProgramFactory device_factory(const DeviceCase& c,
                                   std::shared_ptr<DiscreteSystem<f32>> sys,
                                   std::shared_ptr<std::vector<f32>> minv) {
  auto cache = std::make_shared<core::ProgramCache>();
  const auto& mesh = c.problem.mesh();
  return [&c, sys, minv, cache, &mesh](wse::PeCoord coord)
             -> std::unique_ptr<wse::PeProgram> {
    const core::PeInit init =
        core::build_pe_init(c.problem, *sys, coord.x, coord.y, c.mode,
                            c.jacobi ? minv.get() : nullptr);
    if (c.chebyshev) {
      core::ChebyshevPeConfig config;
      config.nz = static_cast<u32>(mesh.nz());
      config.mode = c.mode;
      config.max_iterations = c.max_iterations;
      config.tolerance = c.tolerance;
      config.check_every = 4;
      config.lambda_min = 0.05f;
      config.lambda_max = 12.0f;
      config.init = init;
      return std::make_unique<core::BytecodeChebyshevProgram>(
          config, coord, mesh.nx(), mesh.ny(), wse::PeMemoryParams{}, cache);
    }
    core::CgPeConfig config;
    config.nz = static_cast<u32>(mesh.nz());
    config.mode = c.mode;
    config.max_iterations = c.max_iterations;
    config.tolerance = c.tolerance;
    config.jacobi = c.jacobi;
    config.diagonal_shift = c.diagonal_shift;
    config.init = init;
    return std::make_unique<core::BytecodeCgProgram>(
        config, coord, mesh.nx(), mesh.ny(), wse::PeMemoryParams{}, cache);
  };
}

/// Everything a run leaves behind on the fabric.
struct FabricEnd {
  wse::Fabric::RunResult run;
  wse::FabricStats stats;
  std::vector<std::vector<u8>> arenas;
  std::vector<OpCounters> counters;
  std::string metrics;
  u64 replayed = 0;
};

/// Runs `c` to completion, first stopping at each of `cuts` (cycle
/// limits), with replay on or off.
FabricEnd run_device(const DeviceCase& c, bool fast_forward,
                     const std::vector<f64>& cuts = {},
                     wse::ShardGrid grid = {}) {
  auto sys = std::make_shared<DiscreteSystem<f32>>(c.problem.discretize<f32>());
  auto minv = std::make_shared<std::vector<f32>>();
  if (c.jacobi) {
    *minv = jacobian_diagonal(*sys);
    for (std::size_t i = 0; i < minv->size(); ++i) {
      if (!sys->dirichlet[i]) (*minv)[i] += c.diagonal_shift;
      (*minv)[i] = 1.0f / (*minv)[i];
    }
  }
  const auto& mesh = c.problem.mesh();
  wse::Fabric fabric(mesh.nx(), mesh.ny(), c.timing, {}, grid);
  fabric.set_fast_forward(fast_forward);
  telemetry::Session session({telemetry::Level::Metrics});
  fabric.set_telemetry(&session.collector());
  fabric.load(device_factory(c, sys, minv));
  FabricEnd end;
  for (const f64 cut : cuts) {
    const auto partial = fabric.run(cut);
    EXPECT_TRUE(partial.hit_cycle_limit) << "cut " << cut;
  }
  end.run = fabric.run();
  EXPECT_TRUE(end.run.all_halted);
  end.stats = fabric.stats();
  for (i64 y = 0; y < mesh.ny(); ++y)
    for (i64 x = 0; x < mesh.nx(); ++x) {
      end.arenas.push_back(fabric.pe_memory(x, y).contents());
      end.counters.push_back(fabric.pe_counters(x, y));
    }
  telemetry::RunInfo info;
  info.total_cycles = end.run.cycles;
  session.finalize(info);
  end.metrics = session.metrics_json();
  end.replayed = fabric.replayed_periods();
  return end;
}

void expect_same_end(const FabricEnd& a, const FabricEnd& b) {
  EXPECT_EQ(a.run.cycles, b.run.cycles);
  EXPECT_EQ(a.run.all_halted, b.run.all_halted);
  EXPECT_TRUE(a.stats == b.stats);
  ASSERT_EQ(a.arenas.size(), b.arenas.size());
  for (std::size_t p = 0; p < a.arenas.size(); ++p) {
    EXPECT_EQ(a.arenas[p], b.arenas[p]) << "arena of PE " << p;
    EXPECT_EQ(std::memcmp(&a.counters[p], &b.counters[p], sizeof(OpCounters)), 0)
        << "counters of PE " << p;
  }
  EXPECT_EQ(a.metrics, b.metrics);
}

/// Runs `c` with replay on and off; returns the periods replayed.
u64 expect_device_replay_exact(const DeviceCase& c) {
  const FabricEnd full = run_device(c, false);
  const FabricEnd fast = run_device(c, true);
  EXPECT_EQ(full.replayed, 0u);
  expect_same_end(full, fast);
  return fast.replayed;
}

// --- the cases -------------------------------------------------------------

TEST(FastForward, CgFusedAndOnTheFlyMatchFullSimulation) {
  for (const FluxMode mode : {FluxMode::Fused, FluxMode::OnTheFly}) {
    DeviceCase c{FlowProblem::quarter_five_spot(5, 4, 6, /*seed=*/7)};
    c.mode = mode;
    EXPECT_GE(expect_device_replay_exact(c), 20u);
  }
}

TEST(FastForward, JacobiWithShiftMatchesFullSimulation) {
  DeviceCase c{FlowProblem::quarter_five_spot(4, 5, 5, /*seed=*/11)};
  c.jacobi = true;
  c.diagonal_shift = 0.05f;
  EXPECT_GE(expect_device_replay_exact(c), 20u);
}

TEST(FastForward, ChebyshevMatchesFullSimulation) {
  DeviceCase c{FlowProblem::homogeneous_column(5, 5, 3)};
  c.chebyshev = true;
  c.max_iterations = 40; // probes every 4 iterations: 10 periods
  EXPECT_GE(expect_device_replay_exact(c), 5u);
}

TEST(FastForward, FabricShapesMatchFullSimulation) {
  const struct {
    i64 nx, ny, nz;
  } kShapes[] = {{1, 6, 3}, {6, 1, 3}, {2, 2, 4}, {3, 5, 4}};
  for (const auto& [nx, ny, nz] : kShapes) {
    DeviceCase c{FlowProblem::quarter_five_spot(nx, ny, nz, /*seed=*/13, 0.5)};
    c.tolerance = 1e-12f; // these small systems reach r^T r = 0
    c.max_iterations = 2000;
    EXPECT_GE(expect_device_replay_exact(c), 3u) << nx << "x" << ny << "x" << nz;
  }
}

TEST(FastForward, ConvergenceMidReplayMatchesFullSimulation) {
  // 12x12x4 lognormal at tolerance 1e-6: the convergence test leaves the
  // recorded path partway through the run.
  DeviceCase c{FlowProblem::quarter_five_spot(12, 12, 4, /*seed=*/5, 1.0)};
  c.tolerance = 1e-6f;
  c.max_iterations = 500;
  const FabricEnd full = run_device(c, false);
  const FabricEnd fast = run_device(c, true);
  expect_same_end(full, fast);
  EXPECT_GE(fast.replayed, 10u);

  DataflowConfig config;
  config.tolerance = 1e-6f;
  config.max_iterations = 500;
  EXPECT_GE(expect_cg_replay_exact(c.problem, config), 10u);
}

TEST(FastForward, Paper64x64x8TenIterationsMatchesFullSimulation) {
  DeviceCase c{FlowProblem::quarter_five_spot(64, 64, 8, /*seed=*/1, 1.0)};
  c.max_iterations = 10;
  EXPECT_GE(expect_device_replay_exact(c), 5u);
}

TEST(FastForward, OffGridTimingSimulatesAndFarFutureReplays) {
  // Off the binary grid the shifted sums round differently from period
  // to period, so nothing replays; hops of 3,000 cycles put every arrival
  // beyond the queue's window and still replay exactly.
  DeviceCase off{FlowProblem::quarter_five_spot(5, 6, 4, /*seed=*/29)};
  off.timing.words_per_cycle_link = 3;
  off.timing.hop_latency_cycles = 1.25;
  off.timing.task_dispatch_cycles = 7.3;
  EXPECT_EQ(expect_device_replay_exact(off), 0u);

  DeviceCase far{FlowProblem::quarter_five_spot(4, 5, 4, /*seed=*/31)};
  far.timing.hop_latency_cycles = 3000;
  EXPECT_GE(expect_device_replay_exact(far), 20u);
}

TEST(FastForward, CycleLimitedRunsContinueExactly) {
  // run(T1); run(T2); run() ends where one run() does, with T1 and T2
  // inside replayed periods; also on a forced 2x2 tile grid, which never
  // replays.
  DeviceCase c{FlowProblem::quarter_five_spot(6, 5, 4, /*seed=*/3)};
  c.max_iterations = 40;
  const FabricEnd reference = run_device(c, false);
  const f64 total = reference.run.cycles;
  const std::vector<f64> cuts = {std::floor(0.41 * total) + 0.25,
                                 std::floor(0.77 * total) + 0.25};
  const FabricEnd serial = run_device(c, true, cuts);
  expect_same_end(reference, serial);
  EXPECT_GE(serial.replayed, 20u);
  const FabricEnd tiled = run_device(c, true, cuts, wse::ShardGrid{2, 2});
  expect_same_end(reference, tiled);
  EXPECT_EQ(tiled.replayed, 0u);
}

// A 1x2 ping-pong: PE (0,0) counts f1 down once per round trip and checks
// it stays positive, so the run fails in its tenth period.
wse::ProgramFactory countdown_program() {
  using namespace wse;
  return [](PeCoord coord) {
    return test_util::bc_program([coord](ImageBuilder& image, bc::Builder& b) {
      constexpr Color kEast = 0, kWest = 1, kDone = 24;
      const MemSpan buf = image.memory().alloc_f32("buf", 4);
      const u8 d = b.dsd(dsd(buf));
      const auto handler = b.make_label();
      const bool left = coord.x == 0;
      ColorConfig east, west;
      east.positions = {SwitchPosition{DirMask::of(left ? Dir::Ramp : Dir::West),
                                       DirMask::of(left ? Dir::East : Dir::Ramp)}};
      west.positions = {SwitchPosition{DirMask::of(left ? Dir::East : Dir::Ramp),
                                       DirMask::of(left ? Dir::Ramp : Dir::West)}};
      image.configure_router(kEast, east);
      image.configure_router(kWest, west);
      b.seth(kDone, handler);
      if (left) {
        b.umovi(1, 10.0f);
        b.umovi(2, 1.0f);
        b.recv(kWest, d, kDone);
        b.send(kEast, d);
        b.ret();
        b.bind(handler);
        b.progress(1, 0);
        b.usub(1, 1, 2);
        b.chkpos(1);
        b.recv(kWest, d, kDone);
        b.send(kEast, d);
        b.ret();
      } else {
        b.recv(kEast, d, kDone);
        b.ret();
        b.bind(handler);
        b.send(kWest, d);
        b.recv(kEast, d, kDone);
        b.ret();
      }
    });
  };
}

std::string countdown_error(bool fast_forward, u64* replayed) {
  wse::Fabric fabric(2, 1);
  fabric.set_fast_forward(fast_forward);
  fabric.load(countdown_program());
  std::string error;
  try {
    fabric.run();
  } catch (const Error& e) {
    error = e.what();
  }
  *replayed = fabric.replayed_periods();
  return error;
}

TEST(FastForward, AThrowingReplayedTaskSurfacesTheSameError) {
  u64 full_replayed = 0, fast_replayed = 0;
  const std::string full = countdown_error(false, &full_replayed);
  const std::string fast = countdown_error(true, &fast_replayed);
  EXPECT_NE(full.find("is not positive"), std::string::npos) << full;
  EXPECT_EQ(fast, full);
  EXPECT_GE(fast_replayed, 5u);
}

TEST(FastForward, ObserversOfEveryEventTurnReplayOff) {
  DeviceCase c{FlowProblem::quarter_five_spot(4, 4, 4, /*seed=*/9)};
  c.max_iterations = 12;
  const auto run = [&c](const std::function<void(wse::Fabric&)>& attach) {
    auto sys = std::make_shared<DiscreteSystem<f32>>(c.problem.discretize<f32>());
    wse::Fabric fabric(4, 4);
    attach(fabric);
    fabric.load(device_factory(c, sys, nullptr));
    EXPECT_TRUE(fabric.run().all_halted);
    return fabric.replayed_periods();
  };
  EXPECT_GT(run([](wse::Fabric&) {}), 0u);
  wse::TraceBuffer buffer;
  EXPECT_EQ(run([&buffer](wse::Fabric& f) { f.set_trace(buffer.sink()); }), 0u);
  EXPECT_EQ(run([](wse::Fabric& f) { f.set_faults({1u << 30, 0, 12}); }), 0u);
  telemetry::FabricCollector trace_level(telemetry::Level::Trace);
  EXPECT_EQ(run([&](wse::Fabric& f) { f.set_telemetry(&trace_level); }), 0u);
  telemetry::HostProfiler profiler;
  EXPECT_GT(run([&](wse::Fabric& f) { f.set_host_profiler(&profiler); }), 0u);
}

} // namespace
} // namespace fvdf
