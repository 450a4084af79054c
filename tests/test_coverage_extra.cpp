// Additional coverage for corners the main suites don't reach: queued
// receive descriptors, strided receives, control-only sends, link
// serialization order, device-driver edge cases (initial-field override,
// cycle-limit surfacing, u16 depth guard), H100 GPU solves, memcpy
// accounting, and degenerate component shapes.

#include <gtest/gtest.h>

#include <cmath>

#include "core/solver.hpp"
#include "core/validation.hpp"
#include "fv/problem.hpp"
#include "gpu/gpu_solver.hpp"
#include "solver/pressure_solve.hpp"
#include "wse/bytecode.hpp"
#include "wse/fabric.hpp"

#include "bc_test_program.hpp"

namespace fvdf {
namespace {

using wse::Color;
using wse::ColorConfig;
using wse::Dir;
using wse::DirMask;
using wse::Dsd;
using wse::dsd;
using wse::Fabric;
using wse::MemSpan;
using wse::ImageBuilder;
using wse::PeCoord;
using wse::SwitchPosition;

using test_util::bc_program;
namespace bc = wse::bc;

ColorConfig route_to(Dir dir) {
  ColorConfig config;
  config.positions = {SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(dir)}};
  return config;
}

ColorConfig route_from(Dir dir) {
  ColorConfig config;
  config.positions = {SwitchPosition{DirMask::of(dir), DirMask::of(Dir::Ramp)}};
  return config;
}

// ---------- fabric corners ----------

TEST(FabricExtra, QueuedReceiveDescriptorsFillInFifoOrder) {
  // Two back-to-back messages on one color land in two queued descriptors.
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kFirst = 24, kSecond = 25;

  fabric.load([&](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      if (coord.x == 0) {
        ctx.configure_router(kData, route_to(Dir::East));
        const MemSpan first = ctx.memory().alloc_f32("a", 2);
        const MemSpan second = ctx.memory().alloc_f32("b", 2);
        for (u32 i = 0; i < 2; ++i) {
          ctx.memory().store(first.offset_words + i, 1.0f + static_cast<f32>(i));
          ctx.memory().store(second.offset_words + i, 10.0f + static_cast<f32>(i));
        }
        b.send(kData, b.dsd(dsd(first)));
        b.send(kData, b.dsd(dsd(second)));
        b.halt();
        b.ret();
        return;
      }
      ctx.configure_router(kData, route_from(Dir::West));
      const MemSpan d1 = ctx.memory().alloc_f32("d1", 2);
      const MemSpan d2 = ctx.memory().alloc_f32("d2", 2);
      // The first completion leaves the PE running; the second halts it.
      const auto on_first = b.make_label();
      const auto on_second = b.make_label();
      b.seth(kFirst, on_first);
      b.seth(kSecond, on_second);
      b.recv(kData, b.dsd(dsd(d1)), kFirst);
      b.recv(kData, b.dsd(dsd(d2)), kSecond);
      b.ret();
      b.bind(on_first);
      b.ret();
      b.bind(on_second);
      b.halt();
      b.ret();
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  const wse::PeMemory& rx = fabric.pe_memory(1, 0);
  EXPECT_FLOAT_EQ(rx.load(0), 1.0f);
  EXPECT_FLOAT_EQ(rx.load(1), 2.0f);
  EXPECT_FLOAT_EQ(rx.load(2), 10.0f);
  EXPECT_FLOAT_EQ(rx.load(3), 11.0f);
  EXPECT_EQ(fabric.stats().tasks_run, 4u); // two starts + two completions
}

TEST(FabricExtra, StridedReceiveScattersWords) {
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kDone = 24;
  fabric.load([&](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      if (coord.x == 0) {
        ctx.configure_router(kData, route_to(Dir::East));
        const MemSpan src = ctx.memory().alloc_f32("src", 3);
        for (u32 i = 0; i < 3; ++i)
          ctx.memory().store(src.offset_words + i, static_cast<f32>(i + 1));
        b.send(kData, b.dsd(dsd(src)));
        b.halt();
        b.ret();
        return;
      }
      ctx.configure_router(kData, route_from(Dir::West));
      const MemSpan dst = ctx.memory().alloc_f32("dst", 6);
      const auto done = b.make_label();
      b.seth(kDone, done);
      b.vmovi(b.dsd(dsd(dst)), 0.0f);
      // Stride-2 receive: words land at offsets 0, 2, 4.
      b.recv(kData, b.dsd(Dsd{dst.offset_words, 3, 2}), kDone);
      b.ret();
      b.bind(done);
      b.halt();
      b.ret();
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  const wse::PeMemory& rx = fabric.pe_memory(1, 0);
  EXPECT_FLOAT_EQ(rx.load(0), 1.0f);
  EXPECT_FLOAT_EQ(rx.load(1), 0.0f);
  EXPECT_FLOAT_EQ(rx.load(2), 2.0f);
  EXPECT_FLOAT_EQ(rx.load(3), 0.0f);
  EXPECT_FLOAT_EQ(rx.load(4), 3.0f);
}

TEST(FabricExtra, ControlOnlySendAdvancesRemoteRouter) {
  Fabric fabric(2, 1);
  constexpr Color kCtl = 5;
  fabric.load([&](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      ColorConfig ring;
      if (coord.x == 0) {
        ring.positions = {SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
                          SwitchPosition{DirMask::of(Dir::East), DirMask::of(Dir::Ramp)}};
      } else {
        ring.positions = {SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)},
                          SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::West)}};
      }
      ring.ring_mode = true;
      ctx.configure_router(kCtl, ring);
      if (coord.x == 0) b.send_control(kCtl, wse::color_bit(kCtl));
      b.halt();
      b.ret();
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_EQ(fabric.pe_router(0, 0).position(kCtl), 1u);
  EXPECT_EQ(fabric.pe_router(1, 0).position(kCtl), 1u);
}

TEST(FabricExtra, LinkSerializesConsecutiveMessages) {
  // Two messages from the same PE on the same out-link cannot overlap:
  // total time >= 2 * transfer time of one.
  auto timed = [](int messages) {
    Fabric fabric(2, 1);
    constexpr Color kData = 0;
    constexpr Color kDone = 24;
    fabric.load([&](PeCoord coord) {
      return bc_program([coord, messages](ImageBuilder& ctx, bc::Builder& b) {
        if (coord.x == 0) {
          ctx.configure_router(kData, route_to(Dir::East));
          const u8 src = b.dsd(dsd(ctx.memory().alloc_f32("src", 512)));
          for (int m = 0; m < messages; ++m) b.send(kData, src);
          b.halt();
          b.ret();
          return;
        }
        ctx.configure_router(kData, route_from(Dir::West));
        const u8 dst = b.dsd(dsd(ctx.memory().alloc_f32("dst", 512)));
        // The last of `messages` completions halts the PE.
        const auto done = b.make_label();
        b.seth(kDone, done);
        b.setu(0, static_cast<u32>(messages));
        for (int m = 0; m < messages; ++m) b.recv(kData, dst, kDone);
        b.ret();
        b.bind(done);
        b.decret(0);
        b.halt();
        b.ret();
      });
    });
    return fabric.run().cycles;
  };
  const f64 one = timed(1);
  const f64 three = timed(3);
  // Each extra 512-word message must occupy the link for >= 512 more
  // cycles (fixed per-run overheads are not tripled, so compare against
  // one + pure transfer time of the two extra messages).
  EXPECT_GE(three, one + 2.0 * 512.0);
}

// ---------- core driver corners ----------

TEST(CoreExtra, InitialFieldOverrideChangesConvergencePath) {
  const auto problem = FlowProblem::quarter_five_spot(5, 5, 3, 9);
  CgOptions host_options;
  host_options.tolerance = 1e-24;
  const auto gold = solve_pressure_host(problem, host_options);

  // Warm start from (almost) the solution: far fewer iterations.
  core::DataflowConfig cold;
  cold.tolerance = 1e-13f;
  const auto from_zero = core::solve_dataflow(problem, cold);

  core::DataflowConfig warm = cold;
  warm.initial_field = gold.pressure;
  const auto from_solution = core::solve_dataflow(problem, warm);

  ASSERT_TRUE(from_zero.converged);
  ASSERT_TRUE(from_solution.converged);
  EXPECT_LT(from_solution.iterations, from_zero.iterations / 2);
  // Same answer either way.
  for (std::size_t i = 0; i < gold.pressure.size(); ++i)
    EXPECT_NEAR(static_cast<f64>(from_solution.pressure[i]), gold.pressure[i], 1e-4);
}

TEST(CoreExtra, CycleLimitSurfacesAsError) {
  const auto problem = FlowProblem::homogeneous_column(4, 4, 8);
  core::DataflowConfig config;
  config.tolerance = 1e-30f; // will not converge quickly
  config.max_iterations = 100000;
  config.max_cycles = 500.0; // absurdly small budget
  EXPECT_THROW((void)core::solve_dataflow(problem, config), Error);
}

TEST(CoreExtra, DeltaPlusInitialEqualsPressure) {
  const auto problem = FlowProblem::quarter_five_spot(4, 4, 3, 5);
  core::DataflowConfig config;
  config.tolerance = 1e-13f;
  const auto result = core::solve_dataflow(problem, config);
  const auto p0 = problem.initial_pressure();
  for (std::size_t i = 0; i < result.pressure.size(); ++i)
    EXPECT_FLOAT_EQ(result.pressure[i],
                    static_cast<f32>(p0[i]) + result.delta[i]);
}

TEST(CoreExtra, ValidationReportSummaryIsInformative) {
  const auto problem = FlowProblem::homogeneous_column(3, 3, 3);
  core::DataflowConfig config;
  config.tolerance = 1e-13f;
  const auto report = core::validate_against_host(problem, config, 1e-22);
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("max|dp|"), std::string::npos);
  EXPECT_NE(summary.find("iterations"), std::string::npos);
  EXPECT_EQ(summary.find("NOT converged"), std::string::npos);
}

// ---------- GPU extras ----------

TEST(GpuExtra, H100SolvesAndIsFasterThanA100InTheModel) {
  const auto problem = FlowProblem::quarter_five_spot(6, 6, 4, 12);
  gpu::GpuSolveConfig config;
  config.tolerance = 1e-12;

  gpu::GpuFvSolver a100(problem, GpuSpec::a100(), 1);
  gpu::GpuFvSolver h100(problem, GpuSpec::h100(), 1);
  const auto result_a = a100.solve(config);
  const auto result_h = h100.solve(config);
  ASSERT_TRUE(result_a.converged);
  ASSERT_TRUE(result_h.converged);
  // Same algorithm, same iterations; modeled time favors H100.
  EXPECT_EQ(result_a.iterations, result_h.iterations);
  EXPECT_LT(result_h.modeled_seconds, result_a.modeled_seconds);
  for (std::size_t i = 0; i < result_a.pressure.size(); ++i)
    EXPECT_FLOAT_EQ(result_a.pressure[i], result_h.pressure[i]);
}

TEST(GpuExtra, MemcpyTrafficIsCounted) {
  const auto problem = FlowProblem::homogeneous_column(4, 4, 2);
  gpu::GpuFvSolver solver(problem, GpuSpec::a100(), 1);
  // The upload happened at construction.
  EXPECT_GT(solver.device().memcpy_bytes(), 0u);
}

// ---------- component degenerate shapes ----------

TEST(ComponentExtra, DataflowSolveWithUnitDepth) {
  // nz = 1: no z-faces at all; the kernel's cz branch must be absent.
  const auto problem = FlowProblem::quarter_five_spot(6, 5, 1, 3);
  core::DataflowConfig config;
  config.tolerance = 1e-14f;
  const auto report = core::validate_against_host(problem, config, 1e-24);
  EXPECT_LT(report.rel_l2_error, 1e-4) << report.summary();
}

TEST(ComponentExtra, OnTheFlyJxOnlyRunsAtDepthOne) {
  const auto problem = FlowProblem::homogeneous_column(3, 3, 1);
  core::DataflowConfig config;
  config.flux_mode = core::FluxMode::OnTheFly;
  config.jx_only = true;
  config.max_iterations = 3;
  const auto result = core::solve_dataflow(problem, config);
  EXPECT_EQ(result.iterations, 3u);
}

} // namespace
} // namespace fvdf
