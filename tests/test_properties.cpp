// Property-based tests: randomized sweeps over algebraic invariants that
// must hold for *any* input — operator linearity/symmetry, scaling laws of
// the discretization, reduction-order tolerance of the fabric all-reduce,
// bit-exact determinism of the simulator, model monotonicity, and
// allocator accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/solver.hpp"
#include "fv/operator.hpp"
#include "fv/residual.hpp"
#include "fv/problem.hpp"
#include "gpu/kernels.hpp"
#include "perf/analytic.hpp"
#include "solver/blas.hpp"
#include "solver/cg.hpp"
#include "solver/dense.hpp"
#include "umesh/fabric_map.hpp"
#include "wse/fabric.hpp"

namespace fvdf {
namespace {

// ---------- operator algebra ----------

class OperatorProperties : public ::testing::TestWithParam<u64> {};

TEST_P(OperatorProperties, ApplyIsLinear) {
  const auto problem = FlowProblem::quarter_five_spot(5, 4, 3, GetParam());
  const auto sys = problem.discretize<f64>();
  const MatrixFreeOperator<f64> op(sys);
  const auto n = static_cast<std::size_t>(sys.cell_count());
  Rng rng(GetParam() * 31 + 1);
  std::vector<f64> x(n), y(n), ax(n), ay(n), combo(n), acombo(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-1, 1);
    y[i] = rng.uniform(-1, 1);
  }
  const f64 a = rng.uniform(-2, 2), b = rng.uniform(-2, 2);
  for (std::size_t i = 0; i < n; ++i) combo[i] = a * x[i] + b * y[i];
  op.apply(x.data(), ax.data());
  op.apply(y.data(), ay.data());
  op.apply(combo.data(), acombo.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(acombo[i], a * ax[i] + b * ay[i], 1e-10);
}

TEST_P(OperatorProperties, PermeabilityScalingScalesTheOperator) {
  // Scaling permeability by c scales every transmissibility — and hence
  // the interior operator — by exactly c (harmonic mean is homogeneous).
  const u64 seed = GetParam();
  const CartesianMesh3D mesh(4, 4, 3);
  Rng rng(seed);
  auto perm1 = perm::lognormal(mesh, rng, 0.0, 1.0);
  auto perm2 = perm1;
  const f64 c = 3.25;
  for (auto& v : perm2.data()) v *= c;
  const FlowProblem p1(mesh, std::move(perm1), 1.0, DirichletSet{});
  const FlowProblem p2(mesh, std::move(perm2), 1.0, DirichletSet{});
  const auto s1 = p1.discretize<f64>();
  const auto s2 = p2.discretize<f64>();
  const MatrixFreeOperator<f64> op1(s1), op2(s2);
  const auto n = static_cast<std::size_t>(s1.cell_count());
  Rng vec_rng(seed + 100);
  std::vector<f64> x(n), y1(n), y2(n);
  for (auto& v : x) v = vec_rng.uniform(-1, 1);
  op1.apply(x.data(), y1.data());
  op2.apply(x.data(), y2.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y2[i], c * y1[i], 1e-9);
}

TEST_P(OperatorProperties, ViscosityInverselyScalesTheOperator) {
  const u64 seed = GetParam();
  const CartesianMesh3D mesh(3, 4, 4);
  Rng rng(seed);
  auto perm_field = perm::lognormal(mesh, rng, 0.0, 0.7);
  const FlowProblem thin(mesh, perm_field, 1.0, DirichletSet{});
  const FlowProblem thick(mesh, perm_field, 4.0, DirichletSet{});
  const auto s1 = thin.discretize<f64>();
  const auto s2 = thick.discretize<f64>();
  const MatrixFreeOperator<f64> op1(s1), op2(s2);
  const auto n = static_cast<std::size_t>(s1.cell_count());
  std::vector<f64> x(n), y1(n), y2(n);
  Rng vec_rng(seed + 7);
  for (auto& v : x) v = vec_rng.uniform(-1, 1);
  op1.apply(x.data(), y1.data());
  op2.apply(x.data(), y2.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y1[i], 4.0 * y2[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorProperties, ::testing::Values(1, 2, 3, 4, 5));

// ---------- CG on random SPD systems ----------

class CgProperties : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CgProperties, SolvesRandomSpdSystemToDirectAccuracy) {
  const std::size_t n = GetParam();
  Rng rng(n * 977);
  DenseMatrix a(n);
  // A = B^T B + n*I is SPD with controlled conditioning.
  DenseMatrix b_mat(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b_mat.at(i, j) = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      f64 acc = 0;
      for (std::size_t k = 0; k < n; ++k) acc += b_mat.at(k, i) * b_mat.at(k, j);
      a.at(i, j) = acc + (i == j ? static_cast<f64>(n) : 0.0);
    }
  std::vector<f64> rhs(n), y(n);
  for (auto& v : rhs) v = rng.uniform(-1, 1);

  const auto result = conjugate_gradient<f64>(
      [&](const f64* in, f64* out) { a.apply(in, out); }, rhs.data(), y.data(), n,
      {.max_iterations = 4 * n, .tolerance = 1e-26});
  ASSERT_TRUE(result.converged) << "n=" << n;
  const auto oracle = lu_solve(a, rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], oracle[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgProperties,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34, 55));

// ---------- fabric determinism & reduction tolerance ----------

TEST(FabricProperties, FullSolveIsBitwiseDeterministic) {
  auto run = [] {
    const auto problem = FlowProblem::quarter_five_spot(5, 4, 6, 77, 1.2);
    core::DataflowConfig config;
    config.tolerance = 1e-13f;
    return core::solve_dataflow(problem, config);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.device_cycles, b.device_cycles);
  EXPECT_EQ(a.fabric.events_processed, b.fabric.events_processed);
  ASSERT_EQ(a.pressure.size(), b.pressure.size());
  for (std::size_t i = 0; i < a.pressure.size(); ++i)
    EXPECT_EQ(a.pressure[i], b.pressure[i]) << "bitwise mismatch at " << i;
}

TEST(FabricProperties, TimingOnlyPerturbsFp32RoundingNotTheSolution) {
  // The event-driven kernel accumulates each face's flux the moment its
  // halo lands (Sec. III-B), so link timing changes the fp32 *accumulation
  // order* — real hardware behaves the same way. The property that must
  // hold: the converged solution agrees to fp32 accuracy and the extra
  // latency only makes the run slower, never wrong.
  const auto problem = FlowProblem::quarter_five_spot(4, 5, 4, 11);
  core::DataflowConfig fast;
  fast.tolerance = 1e-13f;
  const auto a = core::solve_dataflow(problem, fast);

  core::DataflowConfig slow = fast;
  slow.timing.hop_latency_cycles = 37.0;
  slow.timing.words_per_cycle_link = 0.25;
  slow.timing.task_dispatch_cycles = 99.0;
  const auto b = core::solve_dataflow(problem, slow);

  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_NEAR(static_cast<f64>(a.iterations), static_cast<f64>(b.iterations), 3.0);
  for (std::size_t i = 0; i < a.pressure.size(); ++i)
    EXPECT_NEAR(a.pressure[i], b.pressure[i], 2e-5f);
  EXPECT_GT(b.device_cycles, a.device_cycles);
}

// ---------- blas / gpu reductions ----------

class DotProperties : public ::testing::TestWithParam<u64> {};

TEST_P(DotProperties, GpuDotMatchesHostDotOnRandomData) {
  Rng rng(GetParam());
  const u64 n = 1 + rng.uniform_index(5000);
  std::vector<f32> a(n), b(n);
  for (u64 i = 0; i < n; ++i) {
    a[i] = static_cast<f32>(rng.uniform(-10, 10));
    b[i] = static_cast<f32>(rng.uniform(-10, 10));
  }
  gpu::CudaDevice device(GpuSpec::a100(), 2);
  const f64 gpu_dot = gpu::launch_dot(device, a.data(), b.data(), n);
  const f64 host_dot = blas::dot(a.data(), b.data(), n);
  EXPECT_NEAR(gpu_dot, host_dot, 1e-2 + 1e-4 * static_cast<f64>(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DotProperties, ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------- analytic model monotonicity ----------

TEST(ModelProperties, Cs2TimesAreMonotoneInEveryArgument) {
  const Cs2AnalyticModel model;
  for (i64 nz : {10, 100, 922})
    EXPECT_LT(model.alg2_time(nz, 10), model.alg2_time(nz + 1, 10));
  for (u64 iters : {1ull, 10ull, 225ull})
    EXPECT_LT(model.alg2_time(100, iters), model.alg2_time(100, iters + 1));
  EXPECT_LT(model.alg1_time(100, 100, 50, 10), model.alg1_time(101, 100, 50, 10));
  EXPECT_LT(model.alg1_time(100, 100, 50, 10), model.alg1_time(100, 101, 50, 10));
  EXPECT_LT(model.comm_time(100, 100, 5), model.comm_time(100, 101, 5));
  // Alg-1 strictly dominates Alg-2 (it contains it).
  for (i64 dim : {50, 200, 750})
    EXPECT_GT(model.alg1_time(dim, dim, 922, 225), model.alg2_time(922, 225));
}

TEST(ModelProperties, GpuTimesAreMonotoneAndOccupancyBounded) {
  const GpuAnalyticModel model(GpuSpec::a100());
  u64 prev_cells = 1000;
  for (u64 cells : {10'000ull, 1'000'000ull, 100'000'000ull}) {
    EXPECT_GT(model.alg2_time(cells, 5), model.alg2_time(prev_cells, 5));
    EXPECT_GT(model.occupancy(cells), model.occupancy(prev_cells));
    EXPECT_LT(model.occupancy(cells), 1.0);
    prev_cells = cells;
  }
}

// ---------- mapping invariants ----------

class MappingProperties : public ::testing::TestWithParam<u64> {};

TEST_P(MappingProperties, PartitionInvariantsHoldForRandomSeeds) {
  const CartesianMesh3D mesh(9, 7, 3);
  const auto field = perm::homogeneous(mesh, 1.0);
  const auto umesh_geom = umesh::UnstructuredMesh::from_cartesian(mesh, field);
  umesh::MappingOptions options;
  options.fabric_width = 4;
  options.fabric_height = 3;
  options.seed = GetParam();
  const auto mapping =
      umesh::map_cells(umesh_geom, umesh::MappingStrategy::Random, options);
  const auto report = umesh::evaluate_mapping(umesh_geom, mapping, options);

  // Every cell assigned; loads sum to n; uncut + cut == faces.
  EXPECT_EQ(report.cells, static_cast<u64>(mesh.cell_count()));
  EXPECT_LE(report.min_cells_per_pe, report.max_cells_per_pe);
  EXPECT_LE(report.max_cells_per_pe - report.min_cells_per_pe, 1u);
  EXPECT_LE(report.cut_faces, umesh_geom.faces().size());
  // Each cut face travels at least one hop.
  EXPECT_GE(report.total_hop_weight, report.cut_faces);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappingProperties, ::testing::Values(1, 7, 42, 1234));

// ---------- allocator accounting ----------

TEST(MemoryProperties, RandomAllocationSequencesAccountExactly) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    wse::PeMemory mem(16384, 0);
    u64 expected = 0;
    for (int i = 0; i < 50; ++i) {
      const u32 count = 1 + static_cast<u32>(rng.uniform_index(20));
      if (rng.uniform() < 0.5) {
        (void)mem.alloc_f32(std::string("a").append(std::to_string(i)), count);
        expected += count * 4u;
      } else {
        (void)mem.alloc_bytes(std::string("b").append(std::to_string(i)), count);
        expected += (count + 3u) & ~3u;
      }
      EXPECT_EQ(mem.used_bytes(), expected);
      EXPECT_EQ(mem.free_bytes(), 16384 - expected);
    }
  }
}

// ---------- formatting round trips ----------

TEST(FormatProperties, CountFormattingPreservesDigits) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const u64 value = rng.next_u64() % 1'000'000'000'000ull;
    std::string formatted = fmt_count(value);
    std::string digits;
    for (char c : formatted)
      if (c != ',') digits += c;
    EXPECT_EQ(digits, std::to_string(value));
    // Separators every three digits from the right.
    if (formatted.size() > 3) {
      const auto comma = formatted.find(',');
      ASSERT_NE(comma, std::string::npos);
      EXPECT_LE(comma, 3u);
    }
  }
}

// ---------- residual/operator consistency ----------

class ResidualProperties : public ::testing::TestWithParam<u64> {};

TEST_P(ResidualProperties, ResidualEqualsNegatedOperatorOnInterior) {
  // For any pressure field satisfying the BCs, r(Eq.3) = -(A p) on interior
  // rows — the identity the device INIT pass relies on.
  const auto problem = FlowProblem::quarter_five_spot(5, 5, 3, GetParam());
  const auto sys = problem.discretize<f64>();
  const MatrixFreeOperator<f64> op(sys);
  const auto n = static_cast<std::size_t>(sys.cell_count());

  Rng rng(GetParam() + 500);
  std::vector<f64> p(n);
  for (auto& v : p) v = rng.uniform(0, 1);
  for (const auto& [idx, value] : problem.bc().sorted())
    p[static_cast<std::size_t>(idx)] = value;

  const auto r = compute_residual(problem.mesh(), problem.transmissibility(),
                                  problem.mobility(), problem.bc(), p);
  std::vector<f64> ap(n);
  op.apply(p.data(), ap.data());
  for (std::size_t i = 0; i < n; ++i) {
    if (problem.bc().contains(static_cast<CellIndex>(i))) {
      EXPECT_NEAR(r[i], 0.0, 1e-12);
    } else {
      EXPECT_NEAR(r[i], -ap[i], 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResidualProperties, ::testing::Values(1, 2, 3));

// ---------- device/host cross-property ----------

class CrossProperties : public ::testing::TestWithParam<u64> {};

TEST_P(CrossProperties, DeviceSolutionSatisfiesEq3ToF32Accuracy) {
  const auto problem = FlowProblem::quarter_five_spot(5, 5, 4, GetParam(), 1.0);
  core::DataflowConfig config;
  config.tolerance = 1e-14f;
  const auto result = core::solve_dataflow(problem, config);
  ASSERT_TRUE(result.converged);
  std::vector<f64> p(result.pressure.begin(), result.pressure.end());
  const auto r = compute_residual(problem.mesh(), problem.transmissibility(),
                                  problem.mobility(), problem.bc(), p);
  EXPECT_LT(blas::norm2(r.data(), r.size()), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossProperties, ::testing::Values(11, 22, 33, 44));

} // namespace
} // namespace fvdf
