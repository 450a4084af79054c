// End-to-end tests of the dataflow FV solver on the simulated fabric:
// numerical agreement with the f64 host oracle across fabric shapes
// (odd/even extents exercise the parity-dependent Table-I schedule),
// permeability fields, flux-kernel modes and column depths.

#include <gtest/gtest.h>

#include <utility>

#include "core/solver.hpp"
#include "core/validation.hpp"
#include "fv/problem.hpp"
#include "solver/pressure_solve.hpp"
#include "telemetry/session.hpp"

#include "golden_digest.hpp"

namespace fvdf::core {
namespace {

DataflowConfig tight_config(FluxMode mode = FluxMode::Fused) {
  DataflowConfig config;
  config.flux_mode = mode;
  config.tolerance = 1e-12f; // on r^T r
  config.max_iterations = 2000;
  return config;
}

TEST(DataflowSolver, SolvesTinyHomogeneousProblem) {
  const auto problem = FlowProblem::homogeneous_column(3, 3, 4);
  const auto result = solve_dataflow(problem, tight_config());
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 0u);

  const auto report = compare_with_host(problem, result, 1e-20);
  EXPECT_LT(report.rel_l2_error, 1e-5);
  EXPECT_LT(report.host_residual_norm, 1e-4);
}

TEST(DataflowSolver, MatchesHostOnHeterogeneousProblem) {
  const auto problem = FlowProblem::quarter_five_spot(6, 5, 8, /*seed=*/42);
  const auto result = solve_dataflow(problem, tight_config());
  EXPECT_TRUE(result.converged);
  const auto report = compare_with_host(problem, result, 1e-22);
  EXPECT_LT(report.rel_l2_error, 2e-5) << report.summary();
}

TEST(DataflowSolver, OnTheFlyModeMatchesFusedMode) {
  const auto problem = FlowProblem::quarter_five_spot(5, 4, 6, /*seed=*/7);
  const auto fused = solve_dataflow(problem, tight_config(FluxMode::Fused));
  const auto otf = solve_dataflow(problem, tight_config(FluxMode::OnTheFly));
  ASSERT_TRUE(fused.converged);
  ASSERT_TRUE(otf.converged);
  for (std::size_t i = 0; i < fused.pressure.size(); ++i)
    EXPECT_NEAR(fused.pressure[i], otf.pressure[i], 1e-4f);
}

struct ShapeParam {
  i64 nx, ny, nz;
};

class DataflowShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(DataflowShapes, ConvergesAndMatchesHost) {
  const auto [nx, ny, nz] = GetParam();
  const auto problem = FlowProblem::quarter_five_spot(nx, ny, nz, /*seed=*/13, 0.5);
  const auto result = solve_dataflow(problem, tight_config());
  EXPECT_TRUE(result.converged) << nx << "x" << ny << "x" << nz;
  const auto report = compare_with_host(problem, result, 1e-22);
  EXPECT_LT(report.rel_l2_error, 5e-5)
      << nx << "x" << ny << "x" << nz << ": " << report.summary();
}

// Odd/even fabric extents exercise all parity paths of the Table-I
// schedule; 1-wide fabrics exercise the degenerate edge cases.
INSTANTIATE_TEST_SUITE_P(
    Shapes, DataflowShapes,
    ::testing::Values(ShapeParam{2, 2, 3}, ShapeParam{3, 3, 3}, ShapeParam{4, 3, 5},
                      ShapeParam{3, 4, 5}, ShapeParam{5, 5, 2}, ShapeParam{1, 5, 4},
                      ShapeParam{5, 1, 4}, ShapeParam{1, 1, 6}, ShapeParam{7, 2, 3},
                      ShapeParam{2, 7, 3}, ShapeParam{6, 6, 1}, ShapeParam{8, 7, 4}));

TEST(DataflowSolver, JxOnlyModeRunsFixedIterations) {
  const auto problem = FlowProblem::homogeneous_column(4, 4, 6);
  DataflowConfig config;
  config.jx_only = true;
  config.max_iterations = 10;
  const auto result = solve_dataflow(problem, config);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 10u);
  EXPECT_GT(result.device_cycles, 0.0);
}

TEST(DataflowSolver, DeviceIterationCountTracksHostF32) {
  const auto problem = FlowProblem::quarter_five_spot(5, 5, 5, /*seed=*/3, 0.5);
  const auto result = solve_dataflow(problem, tight_config());

  CgOptions options;
  options.tolerance = 1e-12;
  const auto host = solve_pressure_host_f32(problem, options);
  ASSERT_TRUE(result.converged);
  ASSERT_TRUE(host.cg.converged);
  // fp32 reduction orders differ (device reduces along chains), so allow a
  // small iteration-count drift.
  const i64 device_iters = static_cast<i64>(result.iterations);
  const i64 host_iters = static_cast<i64>(host.cg.iterations);
  EXPECT_NEAR(static_cast<double>(device_iters), static_cast<double>(host_iters),
              std::max<double>(3.0, 0.2 * static_cast<double>(host_iters)));
}

TEST(DataflowSolver, CommOnlyTimingIsCheaperThanFullRun) {
  const auto problem = FlowProblem::homogeneous_column(4, 4, 8);
  DataflowConfig full;
  full.jx_only = true;
  full.max_iterations = 5;
  const auto with_compute = solve_dataflow(problem, full);

  DataflowConfig comm_only = full;
  comm_only.timing.compute_scale = 0.0; // Table IV's FLOP-free run
  const auto without_compute = solve_dataflow(problem, comm_only);

  EXPECT_LT(without_compute.device_cycles, with_compute.device_cycles);
  // Identical traffic either way.
  EXPECT_EQ(without_compute.fabric.words_delivered, with_compute.fabric.words_delivered);
}

TEST(DataflowSolver, ReportsFabricTraffic) {
  const auto problem = FlowProblem::homogeneous_column(3, 3, 4);
  const auto result = solve_dataflow(problem, tight_config());
  EXPECT_GT(result.fabric.messages_sent, 0u);
  EXPECT_GT(result.fabric.words_delivered, 0u);
  EXPECT_GT(result.counters.total_flops(), 0u);
}

// --- golden digests --------------------------------------------------------
// Every kernel configuration below is pinned by a frozen digest over the
// exact bits of its solve: solution and pressure words, final r^T r,
// iteration count, cycle total, every FabricStats counter, the op ledger,
// the residual history, the Table-II phase cycles and the Metrics-level
// telemetry bundle. The fabric's steady-state fast-forward stays on with
// the Metrics collector attached, so each case of four or more iterations
// on more than one PE also checks that it replayed: the digests pin the
// replayed runs to the literals full simulation produced.

struct DigestedSolve {
  DataflowResult result;
  std::string digest;
};

template <typename Config, typename Solve>
DigestedSolve golden_solve(const FlowProblem& problem, Config config,
                           Solve solve) {
  telemetry::Session session({telemetry::Level::Metrics});
  config.telemetry = &session;
  DigestedSolve out{solve(problem, config), {}};
  const DataflowResult& r = out.result;
  golden::Digest d;
  d.add(r.delta).add(r.pressure).add(r.final_rr).add(r.iterations);
  d.add(r.converged).add(r.device_cycles).add(r.fabric);
  d.add(r.counters.summary()).add(r.residual_history);
  for (const f64 cycles : session.reference_phase_cycles()) d.add(cycles);
  d.add(session.metrics_json());
  out.digest = d.hex();
  return out;
}

DigestedSolve golden_cg(const FlowProblem& problem, const DataflowConfig& config) {
  return golden_solve(problem, config, [](const FlowProblem& p,
                                          const DataflowConfig& c) {
    return solve_dataflow(p, c);
  });
}

TEST(GoldenDigest, CgFused) {
  const auto problem = FlowProblem::quarter_five_spot(6, 5, 8, /*seed=*/42);
  const auto run = golden_cg(problem, tight_config(FluxMode::Fused));
  ASSERT_TRUE(run.result.converged);
  EXPECT_GT(run.result.replayed_periods, 0u);
  EXPECT_EQ(run.digest, "f07e212a6ac1755a");
}

TEST(GoldenDigest, CgOnTheFly) {
  const auto problem = FlowProblem::quarter_five_spot(5, 4, 6, /*seed=*/7);
  const auto run = golden_cg(problem, tight_config(FluxMode::OnTheFly));
  ASSERT_TRUE(run.result.converged);
  EXPECT_GT(run.result.replayed_periods, 0u);
  EXPECT_EQ(run.digest, "a69ad93a3a86692c");
}

TEST(GoldenDigest, JacobiPreconditionedWithShift) {
  const auto problem = FlowProblem::quarter_five_spot(4, 5, 5, /*seed=*/11);
  DataflowConfig config = tight_config();
  config.jacobi_precondition = true;
  config.diagonal_shift = 0.05f;
  const auto run = golden_cg(problem, config);
  ASSERT_TRUE(run.result.converged);
  EXPECT_GT(run.result.replayed_periods, 0u);
  EXPECT_EQ(run.digest, "02f26a90d7beac97");
}

TEST(GoldenDigest, JxOnlyMode) {
  const auto problem = FlowProblem::homogeneous_column(4, 4, 6);
  DataflowConfig config;
  config.jx_only = true;
  config.max_iterations = 8;
  const auto run = golden_cg(problem, config);
  EXPECT_EQ(run.result.iterations, 8u);
  // Alg. 2 mode reports no progress, so it has no period boundary.
  EXPECT_EQ(run.result.replayed_periods, 0u);
  EXPECT_EQ(run.digest, "2ab32a6290f834b6");
}

// Odd/even fabric extents select different Table-I schedule parities and
// different lowered programs; 1-wide fabrics take the degenerate edges.
TEST(GoldenDigest, FabricShapes) {
  const struct {
    ShapeParam shape;
    const char* digest;
  } kCases[] = {
      {{1, 1, 4}, "7bc5c8b71573d866"},
      {{1, 5, 3}, "4101c83d957c7f08"},
      {{5, 1, 3}, "42d6baff431811f7"},
      {{3, 4, 5}, "75d06222942e2e3f"},
      {{7, 2, 3}, "43ed407617cf0849"},
  };
  for (const auto& [shape, digest] : kCases) {
    const auto problem = FlowProblem::quarter_five_spot(
        shape.nx, shape.ny, shape.nz, /*seed=*/13, 0.5);
    const auto run = golden_cg(problem, tight_config());
    EXPECT_EQ(run.digest, digest) << shape.nx << "x" << shape.ny << "x" << shape.nz;
    if (shape.nx * shape.ny > 1 && run.result.iterations >= 4) {
      EXPECT_GT(run.result.replayed_periods, 0u)
          << shape.nx << "x" << shape.ny << "x" << shape.nz;
    }
  }
}

TEST(GoldenDigest, Chebyshev) {
  const auto problem = FlowProblem::homogeneous_column(5, 5, 3);
  ChebyshevDeviceConfig config;
  config.bounds = SpectralBounds{0.05, 12.0}; // conservative bracket
  config.tolerance = 1e-8f;
  config.max_iterations = 2000;
  config.check_every = 8;
  const auto run = golden_solve(problem, config, [](const FlowProblem& p,
                                                    const ChebyshevDeviceConfig& c) {
    return solve_dataflow_chebyshev(p, c);
  });
  EXPECT_GT(run.result.replayed_periods, 0u);
  EXPECT_EQ(run.digest, "4003edb1df6aa95b");
}

// sim_threads is a host-side knob: every thread count reproduces the same
// digest.
TEST(GoldenDigest, EveryThreadCount) {
  const auto problem = FlowProblem::quarter_five_spot(4, 6, 5, /*seed=*/23);
  for (u32 threads : {1u, 2u, 3u}) {
    DataflowConfig config = tight_config();
    config.sim_threads = threads;
    const auto run = golden_cg(problem, config);
    EXPECT_EQ(run.digest, "c1160f552f3b48d4") << "threads=" << threads;
    if (threads == 1) {
      EXPECT_GT(run.result.replayed_periods, 0u);
    }
  }
}

// Timings the default parameters never produce, each pinned as one shard
// and as a forced 2x2 tile grid. Off-grid costs put event times between
// the half-cycle steps the defaults land on; a hop latency above 2,048
// cycles schedules every link arrival that far ahead of the event that
// emitted it. The solves agree bit for bit across layouts, but off the
// half-cycle grid the Metrics bundle's task-cycle sum is added per shard
// and reassociates, so the two layouts carry their own literals.
// Off the grid, the shifted sums of one period round differently in the
// next, so the one-shard run only replays where `one_shard_replays`.
void expect_digest_under_layouts(const FlowProblem& problem,
                                 DataflowConfig config, const char* one_shard,
                                 const char* tiled, bool one_shard_replays) {
  for (const auto& [grid, digest] :
       {std::pair{wse::ShardGrid{1, 1}, one_shard},
        std::pair{wse::ShardGrid{2, 2}, tiled}}) {
    config.shard_grid = grid;
    const auto run = golden_cg(problem, config);
    EXPECT_TRUE(run.result.converged);
    EXPECT_EQ(run.digest, digest) << grid.rows << "x" << grid.cols << " tiles";
    EXPECT_EQ(run.result.replayed_periods > 0, grid.rows == 1 && one_shard_replays)
        << grid.rows << "x" << grid.cols << " tiles";
  }
}

TEST(GoldenDigest, OffGridTiming) {
  const auto problem = FlowProblem::quarter_five_spot(5, 6, 4, /*seed=*/29);
  DataflowConfig config = tight_config();
  config.timing.words_per_cycle_link = 3;
  config.timing.hop_latency_cycles = 1.25;
  config.timing.task_dispatch_cycles = 7.3;
  expect_digest_under_layouts(problem, config, "58a4002cc5fbbecd",
                              "85d7c56f905d3689", /*one_shard_replays=*/false);
}

TEST(GoldenDigest, FarFutureHops) {
  const auto problem = FlowProblem::quarter_five_spot(4, 5, 4, /*seed=*/31);
  DataflowConfig config = tight_config();
  config.timing.hop_latency_cycles = 3000;
  expect_digest_under_layouts(problem, config, "2ecb5b0903d9964d",
                              "2ecb5b0903d9964d", /*one_shard_replays=*/true);
}

} // namespace
} // namespace fvdf::core
