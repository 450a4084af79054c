// The parallel execution engine's contract: the worker-thread count is
// invisible. Solutions, statistics and trace streams must be bitwise
// identical at any `sim_threads`, including repeated runs, and
// backpressure must work across shard boundaries exactly as within one.

#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/solver.hpp"
#include "fv/problem.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/session.hpp"
#include "wse/fabric.hpp"
#include "wse/shard_layout.hpp"
#include "wse/trace.hpp"
#include "wse/worker_pool.hpp"

#include "bc_test_program.hpp"

namespace fvdf::wse {
namespace {

using test_util::bc_program;

// Counts `count` activations of `done` in u-register 0 and halts on the
// last: emits the binding and the counter set-up inline and returns the
// handler label, which emit_join_handler binds after the entry block.
bc::Builder::Label emit_join(bc::Builder& b, Color done, u32 count) {
  const auto handler = b.make_label();
  b.seth(done, handler);
  b.setu(0, count);
  return handler;
}

void emit_join_handler(bc::Builder& b, bc::Builder::Label handler) {
  b.bind(handler);
  b.decret(0);
  b.halt();
  b.ret();
}

bool same_bits(const std::vector<f32>& a, const std::vector<f32>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(f32)) == 0);
}

core::DataflowResult solve_with_threads(u32 threads) {
  // 10x12 -> a (7,1) tile grid under the cost model; every north-south
  // halo exchange near a tile boundary crosses it, so this exercises the
  // merge barrier hard.
  const auto problem = FlowProblem::homogeneous_column(10, 12, 6);
  core::DataflowConfig config;
  config.tolerance = 0.0f;
  config.max_iterations = 25;
  config.sim_threads = threads;
  return core::solve_dataflow(problem, config);
}

TEST(ParallelFabric, SolveIsBitwiseIdenticalAcrossThreadCounts) {
  const auto reference = solve_with_threads(1);
  // Odd counts leave workers with unequal shard ranges; 32 exceeds the
  // shard count (7) and must be clamped invisibly.
  std::vector<u32> counts = {2, 3, 4, 7, 32};
  const u32 hw = usable_cpus();
  if (std::find(counts.begin(), counts.end(), hw) == counts.end())
    counts.push_back(hw);
  for (u32 threads : counts) {
    const auto result = solve_with_threads(threads);
    EXPECT_TRUE(same_bits(result.delta, reference.delta))
        << "delta differs at sim_threads=" << threads;
    EXPECT_TRUE(same_bits(result.pressure, reference.pressure))
        << "pressure differs at sim_threads=" << threads;
    EXPECT_EQ(result.iterations, reference.iterations);
    EXPECT_EQ(result.device_cycles, reference.device_cycles);
    EXPECT_TRUE(result.fabric == reference.fabric)
        << "FabricStats differ at sim_threads=" << threads;
  }
}

TEST(ParallelFabric, RepeatedRunsAreBitwiseIdentical) {
  const auto a = solve_with_threads(4);
  const auto b = solve_with_threads(4);
  EXPECT_TRUE(same_bits(a.delta, b.delta));
  EXPECT_EQ(a.device_cycles, b.device_cycles);
  EXPECT_TRUE(a.fabric == b.fabric);
}

// A 3x4 fabric (forced to 4 shards: one per row) where rows 0 and 2 send
// column-dependent payloads south across shard boundaries while burning
// column-dependent compute time — plenty of same-cycle cross-shard events.
void load_cross_shard_program(Fabric& fabric) {
  constexpr Color kData = 0;
  constexpr Color kDone = 24;
  fabric.load([](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      const bool sender = coord.y == 0 || coord.y == 2;
      const u32 words = 4 + static_cast<u32>(coord.x) * 3;
      if (sender) {
        ColorConfig south;
        south.positions = {SwitchPosition{DirMask::of(Dir::Ramp),
                                          DirMask::of(Dir::South)}};
        ctx.configure_router(kData, south);
        const MemSpan src = ctx.memory().alloc_f32("src", words);
        for (u32 i = 0; i < words; ++i)
          ctx.memory().store(src.offset_words + i,
                             static_cast<f32>(coord.x * 100 + i));
        const u8 burn = b.dsd(dsd(ctx.memory().alloc_f32("burn", 64)));
        for (i64 n = 0; n <= coord.x; ++n) b.vmovi(burn, static_cast<f32>(n));
        b.send(kData, b.dsd(dsd(src)));
        b.halt();
        b.ret();
      } else {
        ColorConfig north;
        north.positions = {SwitchPosition{DirMask::of(Dir::North),
                                          DirMask::of(Dir::Ramp)}};
        ctx.configure_router(kData, north);
        const MemSpan dst = ctx.memory().alloc_f32("dst", words);
        const auto done = emit_join(b, kDone, 1);
        b.recv(kData, b.dsd(dsd(dst)), kDone);
        b.ret();
        emit_join_handler(b, done);
      }
    });
  });
}

TEST(ParallelFabric, TraceStreamIsIdenticalAcrossThreadCounts) {
  auto traced_run = [](u32 threads) {
    Fabric fabric(3, 4, {}, {}, ShardGrid{4, 1});
    EXPECT_EQ(fabric.shard_count(), 4u);
    fabric.set_threads(threads);
    TraceBuffer buffer;
    fabric.set_trace(buffer.sink());
    load_cross_shard_program(fabric);
    EXPECT_TRUE(fabric.run().all_halted);
    return buffer;
  };
  const TraceBuffer reference = traced_run(1);
  EXPECT_GT(reference.total(), 0u);
  for (u32 threads : {2u, 4u}) {
    const TraceBuffer buffer = traced_run(threads);
    // records() returns a snapshot copy; take it once so the element
    // references below don't dangle off a per-iteration temporary.
    const std::vector<TraceRecord> got_records = buffer.records();
    const std::vector<TraceRecord> want_records = reference.records();
    ASSERT_EQ(got_records.size(), want_records.size())
        << "trace length differs at threads=" << threads;
    for (std::size_t i = 0; i < got_records.size(); ++i) {
      const TraceRecord& got = got_records[i];
      const TraceRecord& want = want_records[i];
      ASSERT_TRUE(got.event == want.event && got.cycles == want.cycles &&
                  got.at == want.at && got.color == want.color &&
                  got.words == want.words)
          << "trace record " << i << " differs at threads=" << threads;
    }
  }
}

TEST(ParallelFabric, BackpressureStallsAcrossShardBoundary) {
  // Sender and receiver sit in different shards (1x2 fabric forced to one
  // shard per row). The data flit crosses the boundary, parks on the
  // receiver's rejecting switch position, and is released by a later
  // control wavelet that also crossed the boundary.
  auto run_once = [](u32 threads) {
    Fabric fabric(1, 2, {}, {}, ShardGrid{2, 1});
    EXPECT_EQ(fabric.shard_count(), 2u);
    fabric.set_threads(threads);
    constexpr Color kData = 0;
    constexpr Color kCtl = 1;
    constexpr Color kDone = 24;

    fabric.load([&](PeCoord coord) {
      return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
        if (coord.y == 0) {
          ColorConfig south;
          south.positions = {SwitchPosition{DirMask::of(Dir::Ramp),
                                            DirMask::of(Dir::South)}};
          ctx.configure_router(kData, south);
          ctx.configure_router(kCtl, south);
          const MemSpan src = ctx.memory().alloc_f32("src", 3);
          for (u32 i = 0; i < 3; ++i)
            ctx.memory().store(src.offset_words + i, static_cast<f32>(7 + i));
          b.send(kData, b.dsd(dsd(src)));
          // Trails the data; advances kData's switch at the receiver.
          b.send_control(kCtl, color_bit(kData));
          b.halt();
          b.ret();
        } else {
          ColorConfig wrong_then_right;
          wrong_then_right.positions = {
              SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::South)},
              SwitchPosition{DirMask::of(Dir::North), DirMask::of(Dir::Ramp)}};
          ctx.configure_router(kData, wrong_then_right);
          ColorConfig from_north;
          from_north.positions = {SwitchPosition{DirMask::of(Dir::North),
                                                 DirMask::of(Dir::Ramp)}};
          ctx.configure_router(kCtl, from_north);
          const MemSpan dst = ctx.memory().alloc_f32("dst", 3);
          const auto done = emit_join(b, kDone, 1);
          b.recv(kData, b.dsd(dsd(dst)), kDone);
          b.ret();
          emit_join_handler(b, done);
        }
      });
    });
    const auto result = fabric.run();
    EXPECT_TRUE(result.all_halted);
    for (u32 i = 0; i < 3; ++i)
      EXPECT_FLOAT_EQ(fabric.pe_memory(0, 1).load(i), static_cast<f32>(7 + i));
    EXPECT_GE(fabric.stats().flits_stalled, 1u);
    return std::make_pair(result.cycles, fabric.stats());
  };
  const auto serial = run_once(1);
  const auto parallel = run_once(4);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_TRUE(serial.second == parallel.second);
}

TEST(ParallelFabric, LocalOnlyWorkloadFinishesInOneRound) {
  // No PE ever sends: every shard's window opens past its whole heap on
  // the first round (the adaptive fast path — no merge, no rescan), so the
  // run drains in a single round at any thread count.
  auto run = [](u32 threads) {
    Fabric fabric(2, 6, {}, {}, ShardGrid{6, 1});
    EXPECT_EQ(fabric.shard_count(), 6u);
    fabric.set_threads(threads);
    fabric.load([](PeCoord) {
      return bc_program([](ImageBuilder& ctx, bc::Builder& b) {
        b.vmovi(b.dsd(dsd(ctx.memory().alloc_f32("buf", 16))), 1.0f);
        b.halt();
        b.ret();
      });
    });
    EXPECT_TRUE(fabric.run().all_halted);
    return std::make_pair(fabric.last_run_rounds(), fabric.stats());
  };
  const auto serial = run(1);
  EXPECT_EQ(serial.first, 1u);
  for (u32 threads : {3u, 6u, 8u}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.first, serial.first) << "threads=" << threads;
    EXPECT_TRUE(parallel.second == serial.second) << "threads=" << threads;
  }
}

TEST(ParallelFabric, PartitionNeverCreatesEmptyShards) {
  // Property sweep over the cost model: every band is non-empty, the
  // splits tile the fabric exactly, and the tile count stays within the
  // amortization budget — so no shard ever joins the window barrier with
  // nothing to do.
  for (i64 w : {1, 2, 3, 7, 10, 16, 40, 128}) {
    for (i64 h : {1, 2, 5, 11, 16, 33, 128}) {
      const ShardLayout layout = choose_shard_layout(w, h);
      const i64 budget =
          std::clamp<i64>(w * h / kMinTilePes, 1, static_cast<i64>(kMaxShards));
      EXPECT_LE(static_cast<i64>(layout.tiles()), budget) << w << "x" << h;
      ASSERT_EQ(layout.row_splits.size(), layout.tile_rows + 1u);
      ASSERT_EQ(layout.col_splits.size(), layout.tile_cols + 1u);
      EXPECT_EQ(layout.row_splits.front(), 0);
      EXPECT_EQ(layout.row_splits.back(), h);
      EXPECT_EQ(layout.col_splits.front(), 0);
      EXPECT_EQ(layout.col_splits.back(), w);
      for (u32 r = 0; r < layout.tile_rows; ++r)
        EXPECT_LT(layout.row_splits[r], layout.row_splits[r + 1])
            << w << "x" << h;
      for (u32 c = 0; c < layout.tile_cols; ++c)
        EXPECT_LT(layout.col_splits[c], layout.col_splits[c + 1])
            << w << "x" << h;
    }
  }
  // Worked examples: square fabrics get square-ish tiles, narrow fabrics
  // degenerate to strips, tiny fabrics collapse to a single serial shard.
  EXPECT_EQ(choose_shard_layout(128, 128).tile_rows, 4u);
  EXPECT_EQ(choose_shard_layout(128, 128).tile_cols, 4u);
  EXPECT_EQ(choose_shard_layout(8, 8).tile_rows, 2u);
  EXPECT_EQ(choose_shard_layout(8, 8).tile_cols, 2u);
  EXPECT_EQ(choose_shard_layout(4, 4).tiles(), 1u);
  EXPECT_EQ(choose_shard_layout(1, 40).tile_rows, 2u);
  EXPECT_EQ(choose_shard_layout(1, 40).tile_cols, 1u);
  EXPECT_EQ(choose_shard_layout(40, 1).tile_rows, 1u);
  EXPECT_EQ(choose_shard_layout(40, 1).tile_cols, 2u);
  // The forced 1D row-strip layout ({0, 1}) never creates empty strips
  // either: the free dimension takes the budget clamped to the extent.
  for (i64 h : {1, 2, 3, 5, 7, 11, 15, 16, 17, 33, 100}) {
    Fabric fabric(2, h, {}, {}, ShardGrid{0, 1});
    const i64 budget =
        std::clamp<i64>(2 * h / kMinTilePes, 1, static_cast<i64>(kMaxShards));
    EXPECT_EQ(fabric.shard_count(),
              static_cast<u32>(std::min<i64>(budget, h)))
        << "height=" << h;
    EXPECT_LE(fabric.shard_count(), static_cast<u32>(h)) << "height=" << h;
  }
}

TEST(ShardLayout, AssignShardBlocksCoversEveryTileOnce) {
  for (u32 rows = 1; rows <= 4; ++rows)
    for (u32 cols = 1; cols <= 4; ++cols)
      for (u32 workers = 1; workers <= rows * cols; ++workers) {
        const auto owned = assign_shard_blocks(rows, cols, workers);
        ASSERT_EQ(owned.size(), workers);
        std::vector<u32> seen(rows * cols, 0);
        for (const std::vector<u32>& mine : owned) {
          EXPECT_FALSE(mine.empty())
              << rows << "x" << cols << " on " << workers << " workers";
          for (u32 s : mine) {
            ASSERT_LT(s, rows * cols);
            ++seen[s];
          }
        }
        for (u32 s = 0; s < rows * cols; ++s)
          EXPECT_EQ(seen[s], 1u) << "shard " << s << " of " << rows << "x"
                                 << cols << " on " << workers << " workers";
      }
}

TEST(ShardLayout, AssignShardBlocksPrefersBlocksThenRowMajorRuns) {
  using Owned = std::vector<std::vector<u32>>;
  // 4 workers on 4x4 tiles: a 2x2 worker grid of 2x2 blocks.
  EXPECT_EQ(assign_shard_blocks(4, 4, 4),
            (Owned{{0, 1, 4, 5}, {2, 3, 6, 7}, {8, 9, 12, 13}, {10, 11, 14, 15}}));
  // 3 workers still fit 4x4 as one row of column bands (1x3 and 3x1 cut
  // equally; the first found wins).
  EXPECT_EQ(assign_shard_blocks(4, 4, 3),
            (Owned{{0, 4, 8, 12}, {1, 5, 9, 13}, {2, 3, 6, 7, 10, 11, 14, 15}}));
  // No factorization fits: contiguous row-major runs.
  EXPECT_EQ(assign_shard_blocks(2, 2, 3), (Owned{{0}, {1}, {2, 3}}));
  EXPECT_EQ(assign_shard_blocks(4, 4, 5),
            (Owned{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}, {12, 13, 14, 15}}));
  EXPECT_THROW(assign_shard_blocks(4, 4, 0), Error);
  EXPECT_THROW(assign_shard_blocks(4, 4, 17), Error);
  EXPECT_THROW(assign_shard_blocks(1, 1, 2), Error);
}

// The engine's central promise after the 2D generalization: results are
// bitwise identical under ANY shard layout — 2D tiles, 1D strips, serial —
// not just any thread count. The (t, emitting PE, emission index) event
// order plus sound per-boundary horizons make the round schedule's shape
// invisible.
core::DataflowResult solve_with_layout(ShardGrid grid, u32 threads) {
  // Non-square, non-multiple extents: 11x7x5 forces ragged tile rects.
  const auto problem = FlowProblem::quarter_five_spot(11, 7, 5, 9, 0.8);
  core::DataflowConfig config;
  config.tolerance = 0.0f;
  config.max_iterations = 18;
  config.sim_threads = threads;
  config.shard_grid = grid;
  return core::solve_dataflow(problem, config);
}

TEST(ParallelFabric, SolveIsBitwiseIdenticalAcrossShardLayouts) {
  const auto serial = solve_with_layout(ShardGrid{1, 1}, 1);
  const ShardGrid grids[] = {
      {},     // cost model (the default 2D choice)
      {0, 1}, // 1D row strips
      {2, 2}, {3, 1}, {1, 3}, {2, 3},
  };
  for (const ShardGrid& grid : grids) {
    for (u32 threads : {1u, 2u, 3u, 4u, 7u, 8u}) {
      const auto result = solve_with_layout(grid, threads);
      EXPECT_TRUE(same_bits(result.delta, serial.delta))
          << "delta differs: grid {" << grid.rows << "," << grid.cols
          << "} threads=" << threads;
      EXPECT_TRUE(same_bits(result.pressure, serial.pressure));
      EXPECT_EQ(result.iterations, serial.iterations);
      EXPECT_EQ(result.device_cycles, serial.device_cycles);
      EXPECT_TRUE(result.fabric == serial.fabric)
          << "FabricStats differ: grid {" << grid.rows << "," << grid.cols
          << "} threads=" << threads;
    }
  }
}

TEST(ParallelFabric, DegenerateFabricsCollapseToSerial) {
  // Single-row, single-column and single-PE fabrics fall under the
  // kMinTilePes budget, so the cost model hands back one shard and the
  // engine takes the serial fast path — while still matching a forced
  // multi-strip run bit for bit where one is possible.
  for (auto [w, h] : {std::pair<i64, i64>{6, 1}, {1, 6}, {1, 1}}) {
    Fabric fabric(static_cast<i64>(w), static_cast<i64>(h));
    EXPECT_EQ(fabric.shard_count(), 1u) << w << "x" << h;
  }
  const auto problem = FlowProblem::homogeneous_column(1, 8, 4);
  core::DataflowConfig config;
  config.tolerance = 0.0f;
  config.max_iterations = 10;
  config.sim_threads = 1;
  const auto serial = core::solve_dataflow(problem, config);
  config.shard_grid = ShardGrid{8, 1};
  config.sim_threads = 4;
  const auto sharded = core::solve_dataflow(problem, config);
  EXPECT_TRUE(same_bits(sharded.delta, serial.delta));
  EXPECT_EQ(sharded.device_cycles, serial.device_cycles);
  EXPECT_TRUE(sharded.fabric == serial.fabric);
}

// ---- host profiler (telemetry/host_profiler.hpp) ----------------------
//
// The profiler's whole contract is "observe, never perturb": attaching it
// must leave solve results, ledgers and the deterministic telemetry bundle
// bitwise identical at every thread count, while its own timelines must
// partition each worker's wall clock exactly.

struct InstrumentedSolve {
  core::DataflowResult result;
  std::string metrics, trace, progress;
};

InstrumentedSolve solve_instrumented(u32 threads,
                                     telemetry::HostProfiler* profiler) {
  const auto problem = FlowProblem::homogeneous_column(10, 12, 6);
  telemetry::TelemetryConfig tconfig;
  tconfig.level = telemetry::Level::Trace;
  telemetry::Session session(tconfig);
  core::DataflowConfig config;
  config.tolerance = 0.0f;
  config.max_iterations = 25;
  config.sim_threads = threads;
  config.telemetry = &session;
  config.host_profiler = profiler;
  InstrumentedSolve out;
  out.result = core::solve_dataflow(problem, config);
  out.metrics = session.metrics_json();
  out.trace = session.chrome_trace_json();
  out.progress = session.progress_json();
  return out;
}

TEST(HostProfiler, AttachingNeverPerturbsResultsOrTelemetry) {
  // Worker pool park/wake and the sense-reversing barrier run with the
  // profiler's timeline hooks live at 1 (serial path), even, odd and
  // oversubscribed thread counts; everything observable must match the
  // unprofiled threads=1 run bit for bit.
  const InstrumentedSolve reference = solve_instrumented(1, nullptr);
  for (u32 threads : {1u, 2u, 4u, 7u}) {
    telemetry::HostProfiler profiler;
    const InstrumentedSolve profiled = solve_instrumented(threads, &profiler);
    EXPECT_TRUE(same_bits(profiled.result.delta, reference.result.delta))
        << "delta differs with profiler at threads=" << threads;
    EXPECT_TRUE(same_bits(profiled.result.pressure, reference.result.pressure))
        << "pressure differs with profiler at threads=" << threads;
    EXPECT_EQ(profiled.result.iterations, reference.result.iterations);
    EXPECT_EQ(profiled.result.device_cycles, reference.result.device_cycles);
    EXPECT_TRUE(profiled.result.fabric == reference.result.fabric)
        << "FabricStats differ with profiler at threads=" << threads;
    EXPECT_EQ(profiled.metrics, reference.metrics)
        << "metrics.json differs with profiler at threads=" << threads;
    EXPECT_EQ(profiled.trace, reference.trace)
        << "trace.json differs with profiler at threads=" << threads;
    EXPECT_EQ(profiled.progress, reference.progress)
        << "progress.json differs with profiler at threads=" << threads;
    if (Fabric::host_profiling_compiled()) {
      EXPECT_TRUE(profiler.captured()) << "threads=" << threads;
      EXPECT_GT(profiler.rounds(), 0u);
    } else {
      EXPECT_FALSE(profiler.captured());
    }
  }
}

TEST(HostProfiler, TimelinesPartitionEachWorkersWallClock) {
  if (!Fabric::host_profiling_compiled())
    GTEST_SKIP() << "built with -DFVDF_TELEMETRY=OFF";
  telemetry::HostProfiler profiler;
  solve_instrumented(4, &profiler);
  ASSERT_TRUE(profiler.captured());
  ASSERT_GT(profiler.workers(), 1u);
  ASSERT_GT(profiler.shards(), 1u);
  const f64 wall = profiler.wall_seconds();
  ASSERT_GT(wall, 0.0);

  for (u32 w = 0; w < profiler.workers(); ++w) {
    const auto& timeline = profiler.worker_timeline(w);
    // Per-state totals account for the full wall interval exactly (they
    // stay exact even past the interval-detail cap).
    f64 accounted = 0;
    for (f64 seconds : timeline.totals()) accounted += seconds;
    EXPECT_NEAR(accounted, wall, 1e-6) << "worker " << w;
    // Recorded intervals are sorted, non-overlapping and gap-free from 0.
    f64 cursor = 0;
    for (const auto& interval : timeline.intervals()) {
      EXPECT_DOUBLE_EQ(interval.begin, cursor)
          << "gap or overlap at worker " << w;
      EXPECT_GT(interval.end, interval.begin) << "worker " << w;
      cursor = interval.end;
    }
    if (timeline.dropped() == 0) {
      EXPECT_NEAR(cursor, wall, 1e-6);
    }
  }

  // Stall attribution: every round classified every shard exactly once.
  for (u32 s = 0; s < profiler.shards(); ++s)
    EXPECT_EQ(profiler.shard_stats(s).rounds_total(), profiler.rounds())
        << "shard " << s;

  // Critical-path bound sanity: exactly 1 at one thread, monotone in the
  // thread ladder, never past the unbounded limit.
  EXPECT_NEAR(profiler.max_speedup_bound(1), 1.0, 1e-9);
  EXPECT_NEAR(profiler.max_event_speedup_bound(1), 1.0, 1e-9);
  f64 previous = 0;
  for (u32 threads : telemetry::kBoundThreads) {
    const f64 bound = profiler.max_speedup_bound(threads);
    EXPECT_GE(bound, 1.0) << "threads=" << threads;
    EXPECT_GE(bound, previous - 1e-12) << "threads=" << threads;
    EXPECT_LE(bound, profiler.max_speedup_unbounded() + 1e-9)
        << "threads=" << threads;
    previous = bound;
  }
}

TEST(HostProfiler, SurvivesReuseAcrossRuns) {
  // One profiler handed to back-to-back solves (the fabric_profile --reps
  // pattern): begin_run must re-arm cleanly after a parked pool wakes, and
  // the last run's capture must stand on its own.
  if (!Fabric::host_profiling_compiled())
    GTEST_SKIP() << "built with -DFVDF_TELEMETRY=OFF";
  telemetry::HostProfiler profiler;
  const InstrumentedSolve first = solve_instrumented(7, &profiler);
  const u64 first_rounds = profiler.rounds();
  ASSERT_GT(first_rounds, 0u);
  const InstrumentedSolve second = solve_instrumented(7, &profiler);
  EXPECT_TRUE(same_bits(first.result.delta, second.result.delta));
  EXPECT_EQ(profiler.rounds(), first_rounds);
  for (u32 s = 0; s < profiler.shards(); ++s)
    EXPECT_EQ(profiler.shard_stats(s).rounds_total(), profiler.rounds());
  // Export stays self-consistent after reuse.
  const std::string json = profiler.host_profile_json();
  EXPECT_NE(json.find("fvdf.telemetry.host_profile/2"), std::string::npos);
}

TEST(ParallelFabric, AutoLayoutIsOneShardAtOneWorker) {
  // The automatic layout resolves against the worker count set before
  // load(): one worker runs one shard, two or more the cost-model tiles.
  Fabric tall(1, 40);
  EXPECT_EQ(tall.shard_count(), 1u); // default threads = 1
  tall.set_threads(7);
  EXPECT_EQ(tall.shard_count(), 2u); // budget 40/16 -> two row strips
  EXPECT_EQ(tall.tile_rows(), 2u);
  EXPECT_EQ(tall.threads(), 7u);
  tall.set_threads(2);
  EXPECT_EQ(tall.shard_count(), 2u); // any count >= 2 picks the same tiles
  tall.set_threads(1);
  EXPECT_EQ(tall.shard_count(), 1u);

  Fabric flat(40, 1);
  flat.set_threads(2);
  EXPECT_EQ(flat.shard_count(), 2u); // one row -> two column strips
  EXPECT_EQ(flat.tile_cols(), 2u);

  Fabric mid(4, 6);
  mid.set_threads(4);
  EXPECT_EQ(mid.shard_count(), 1u); // 24 PEs < 2*kMinTilePes -> serial

  // Explicit grids are honoured at any thread count.
  for (u32 threads : {1u, 4u}) {
    Fabric forced(3, 4, {}, {}, ShardGrid{4, 1});
    forced.set_threads(threads);
    EXPECT_EQ(forced.shard_count(), 4u) << "threads=" << threads;
    Fabric strips(2, 40, {}, {}, ShardGrid{0, 1});
    strips.set_threads(threads);
    EXPECT_EQ(strips.shard_count(), 5u) << "threads=" << threads; // 80/16
    EXPECT_EQ(strips.tile_cols(), 1u);
  }

  // The layout is fixed once loaded: a later thread count only changes
  // how many workers run() uses.
  Fabric loaded(1, 40);
  loaded.load([](PeCoord) {
    return bc_program([](ImageBuilder&, bc::Builder& b) {
      b.halt();
      b.ret();
    });
  });
  loaded.set_threads(4);
  EXPECT_EQ(loaded.shard_count(), 1u);
  EXPECT_TRUE(loaded.run().all_halted);
  EXPECT_EQ(loaded.last_run_rounds(), 1u);

  Fabric any(2, 2);
  any.set_threads(0); // hardware concurrency
  EXPECT_GE(any.threads(), 1u);

  EXPECT_EQ(resolve_shard_grid(ShardGrid{}, 1), (ShardGrid{1, 1}));
  EXPECT_EQ(resolve_shard_grid(ShardGrid{}, 2), ShardGrid{});
  EXPECT_EQ(resolve_shard_grid(ShardGrid{0, 1}, 1), (ShardGrid{0, 1}));
  EXPECT_EQ(resolve_shard_grid(ShardGrid{2, 3}, 1), (ShardGrid{2, 3}));
}

TEST(ParallelFabric, RelayoutResetsLookaheadAndRebindsTelemetry) {
  // Changing the layout before load() replaces the shards, so whatever was
  // sized for the old layout follows: the lookahead table reverts to the
  // (always safe) default and an attached collector is rebound to the new
  // shard slots.
  Fabric fabric(8, 8);
  telemetry::FabricCollector collector(telemetry::Level::Metrics);
  fabric.set_telemetry(&collector);
  EXPECT_EQ(fabric.channel_lookahead().out.size(), 1u);
  fabric.set_threads(4);
  ASSERT_EQ(fabric.shard_count(), 4u); // 8x8 -> 2x2 tiles
  EXPECT_EQ(fabric.channel_lookahead().out.size(), 4u);
  fabric.load([](PeCoord) {
    return bc_program([](ImageBuilder&, bc::Builder& b) {
      b.phase(1);
      b.halt();
      b.ret();
    });
  });
  const auto result = fabric.run();
  EXPECT_TRUE(result.all_halted);
  collector.finalize(result.cycles);
  EXPECT_EQ(collector.phase_marks().size(), 64u);
}

// A 1x2 fabric where PE (0,1) queues three receive descriptors on one
// color before any data arrives, and the one data flit sent to it parks on
// a rejecting switch position, is re-parked by a first advance that still
// rejects it, and is released by a second. Exercises the per-PE FIFOs'
// reuse: several descriptors drained by one delivery, and the stall queue
// handed back and refilled inside one advance.
struct FifoRun {
  f64 cycles = 0;
  FabricStats stats;
  std::vector<f32> words;
  std::vector<TraceRecord> trace;
};

FifoRun run_fifo_program(ShardGrid grid, u32 threads) {
  constexpr Color kData = 0;
  constexpr Color kCtl = 1;
  constexpr Color kDone = 24;
  constexpr u32 kWords = 6; // split 1 + 2 + 3 across the descriptors
  Fabric fabric(1, 2, {}, {}, grid);
  fabric.set_threads(threads);
  TraceBuffer buffer;
  fabric.set_trace(buffer.sink());
  fabric.load([&](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      if (coord.y == 0) {
        ColorConfig south;
        south.positions = {SwitchPosition{DirMask::of(Dir::Ramp),
                                          DirMask::of(Dir::South)}};
        ctx.configure_router(kData, south);
        ctx.configure_router(kCtl, south);
        const MemSpan src = ctx.memory().alloc_f32("src", kWords);
        for (u32 i = 0; i < kWords; ++i)
          ctx.memory().store(src.offset_words + i, static_cast<f32>(10 + i));
        b.send(kData, b.dsd(dsd(src)));
        b.send_control(kCtl, color_bit(kData)); // still rejecting
        b.send_control(kCtl, color_bit(kData)); // accepting
        b.halt();
        b.ret();
      } else {
        const SwitchPosition reject{DirMask::of(Dir::Ramp),
                                    DirMask::of(Dir::South)};
        ColorConfig data;
        data.positions = {reject, reject,
                          SwitchPosition{DirMask::of(Dir::North),
                                         DirMask::of(Dir::Ramp)}};
        ctx.configure_router(kData, data);
        ColorConfig from_north;
        from_north.positions = {SwitchPosition{DirMask::of(Dir::North),
                                               DirMask::of(Dir::Ramp)}};
        ctx.configure_router(kCtl, from_north);
        const MemSpan dst = ctx.memory().alloc_f32("dst", kWords);
        const auto done = emit_join(b, kDone, 3);
        b.recv(kData, b.dsd(Dsd{dst.offset_words, 1, 1}), kDone);
        b.recv(kData, b.dsd(Dsd{dst.offset_words + 1, 2, 1}), kDone);
        b.recv(kData, b.dsd(Dsd{dst.offset_words + 3, 3, 1}), kDone);
        b.ret();
        emit_join_handler(b, done);
      }
    });
  });
  const auto result = fabric.run();
  EXPECT_TRUE(result.all_halted);
  FifoRun out;
  out.cycles = result.cycles;
  out.stats = fabric.stats();
  for (u32 i = 0; i < kWords; ++i) out.words.push_back(fabric.pe_memory(0, 1).load(i));
  out.trace = buffer.records();
  return out;
}

TEST(ParallelFabric, QueuedDescriptorsAndReparkedFlitsMatchAcrossLayouts) {
  const FifoRun serial = run_fifo_program(ShardGrid{1, 1}, 1);
  EXPECT_EQ(serial.words, (std::vector<f32>{10, 11, 12, 13, 14, 15}));
  EXPECT_EQ(serial.stats.flits_stalled, 1u);
  // The flit was released by the second advance, not the first: its ramp
  // delivery coincides with the receiver's last switch advance.
  std::vector<f64> advances;
  f64 delivered_at = -1;
  for (const TraceRecord& r : serial.trace) {
    if (r.at != PeCoord{0, 1}) continue;
    if (r.event == TraceEvent::SwitchAdvance) advances.push_back(r.cycles);
    if (r.event == TraceEvent::RampDelivery && r.words == 6) delivered_at = r.cycles;
  }
  ASSERT_EQ(advances.size(), 2u);
  EXPECT_LT(advances[0], advances[1]);
  EXPECT_EQ(delivered_at, advances[1]);

  for (u32 threads : {1u, 2u}) {
    const FifoRun split = run_fifo_program(ShardGrid{2, 1}, threads);
    EXPECT_EQ(split.cycles, serial.cycles) << "threads=" << threads;
    EXPECT_TRUE(split.stats == serial.stats) << "threads=" << threads;
    EXPECT_EQ(split.words, serial.words) << "threads=" << threads;
    ASSERT_EQ(split.trace.size(), serial.trace.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < split.trace.size(); ++i) {
      const TraceRecord& got = split.trace[i];
      const TraceRecord& want = serial.trace[i];
      EXPECT_TRUE(got.event == want.event && got.cycles == want.cycles &&
                  got.at == want.at && got.color == want.color &&
                  got.words == want.words)
          << "trace record " << i << " differs at threads=" << threads;
    }
  }
}

TEST(ParallelFabric, LongDescriptorQueueDrainsInOrder) {
  // 200 one-word receive descriptors queued on one color, filled by a
  // 150-word and then a 50-word message: the descriptor FIFO pops most of
  // its entries without ever emptying in between, which is the case its
  // in-place compaction exists for.
  constexpr Color kData = 0;
  constexpr Color kDone = 24;
  constexpr u32 kSlots = 200;
  const auto run = [&](ShardGrid grid, u32 threads) {
    Fabric fabric(1, 2, {}, {}, grid);
    fabric.set_threads(threads);
    fabric.load([&](PeCoord coord) {
      return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
        if (coord.y == 0) {
          ColorConfig south;
          south.positions = {SwitchPosition{DirMask::of(Dir::Ramp),
                                            DirMask::of(Dir::South)}};
          ctx.configure_router(kData, south);
          const MemSpan src = ctx.memory().alloc_f32("src", kSlots);
          for (u32 i = 0; i < kSlots; ++i)
            ctx.memory().store(src.offset_words + i, static_cast<f32>(i));
          b.send(kData, b.dsd(Dsd{src.offset_words, 150, 1}));
          b.send(kData, b.dsd(Dsd{src.offset_words + 150, kSlots - 150, 1}));
          b.halt();
          b.ret();
        } else {
          ColorConfig from_north;
          from_north.positions = {SwitchPosition{DirMask::of(Dir::North),
                                                 DirMask::of(Dir::Ramp)}};
          ctx.configure_router(kData, from_north);
          const MemSpan dst = ctx.memory().alloc_f32("dst", kSlots);
          const auto done = emit_join(b, kDone, kSlots);
          // Descriptor i lands word i at slot kSlots-1-i: reversed
          // placement shows each word met its own descriptor.
          for (u32 i = 0; i < kSlots; ++i)
            b.recv(kData, b.dsd(Dsd{dst.offset_words + kSlots - 1 - i, 1, 1}),
                   kDone);
          b.ret();
          emit_join_handler(b, done);
        }
      });
    });
    EXPECT_TRUE(fabric.run().all_halted);
    std::vector<f32> words;
    for (u32 i = 0; i < kSlots; ++i) words.push_back(fabric.pe_memory(0, 1).load(i));
    return std::make_pair(words, fabric.stats());
  };
  const auto serial = run(ShardGrid{1, 1}, 1);
  for (u32 i = 0; i < kSlots; ++i)
    ASSERT_EQ(serial.first[i], static_cast<f32>(kSlots - 1 - i)) << "slot " << i;
  EXPECT_EQ(serial.second.tasks_run, 2u + kSlots); // two start tasks + completions
  const auto split = run(ShardGrid{2, 1}, 2);
  EXPECT_EQ(split.first, serial.first);
  EXPECT_TRUE(split.second == serial.second);
}

// The deterministic telemetry bundle (metrics, Chrome trace, progress) and
// the fabric statistics are a property of the simulated program alone:
// byte-identical under every shard layout, at one worker and at four.
InstrumentedSolve solve_bundle(ShardGrid grid, u32 threads) {
  const auto problem = FlowProblem::homogeneous_column(10, 12, 6);
  telemetry::TelemetryConfig tconfig;
  tconfig.level = telemetry::Level::Trace;
  telemetry::Session session(tconfig);
  core::DataflowConfig config;
  config.tolerance = 0.0f;
  config.max_iterations = 25;
  config.sim_threads = threads;
  config.shard_grid = grid;
  config.telemetry = &session;
  InstrumentedSolve out;
  out.result = core::solve_dataflow(problem, config);
  out.metrics = session.metrics_json();
  out.trace = session.chrome_trace_json();
  out.progress = session.progress_json();
  return out;
}

TEST(ParallelFabric, TelemetryBundleIsIdenticalAcrossShardLayouts) {
  const InstrumentedSolve reference = solve_bundle(ShardGrid{1, 1}, 1);
  EXPECT_FALSE(reference.trace.empty());
  const ShardGrid grids[] = {{1, 1}, {0, 1}, {2, 3}, {}};
  for (const ShardGrid& grid : grids) {
    for (u32 threads : {1u, 4u}) {
      const InstrumentedSolve got = solve_bundle(grid, threads);
      const std::string where = "grid {" + std::to_string(grid.rows) + "," +
                                std::to_string(grid.cols) +
                                "} threads=" + std::to_string(threads);
      EXPECT_TRUE(got.result.fabric == reference.result.fabric) << where;
      EXPECT_TRUE(same_bits(got.result.pressure, reference.result.pressure))
          << where;
      EXPECT_EQ(got.metrics, reference.metrics) << where;
      EXPECT_EQ(got.trace, reference.trace) << where;
      EXPECT_EQ(got.progress, reference.progress) << where;
    }
  }
}

// ---- worker pool --------------------------------------------------------

/// Runs `body` on a helper thread and aborts the test binary if it has not
/// finished after `limit`: a lost wakeup leaves every pool thread asleep,
/// which would otherwise hang the suite instead of failing it.
void run_with_deadline(const std::function<void()>& body,
                       std::chrono::seconds limit, const char* what) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  std::thread runner([body, done] {
    body();
    done->set_value();
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "%s: no progress after %lld s (lost wakeup?)\n", what,
                 static_cast<long long>(limit.count()));
    std::abort();
  }
  runner.join();
}

// Thread ids of this process, with each thread's Cpus_allowed_list.
std::vector<std::pair<std::string, std::string>> thread_cpu_lists() {
  std::vector<std::pair<std::string, std::string>> threads;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream status(entry.path() / "status");
    std::string line;
    while (std::getline(status, line))
      if (line.rfind("Cpus_allowed_list:", 0) == 0) {
        const std::size_t value = line.find_first_not_of(" \t", line.find(':') + 1);
        threads.emplace_back(entry.path().filename().string(),
                             value == std::string::npos ? "" : line.substr(value));
      }
  }
  return threads;
}

TEST(WorkerPool, WorkersStayInsideTheCallersCpuMask) {
  // Fabric workers inherit the mask of the thread that spawns them: a
  // process started under taskset (or a narrower cpuset) must never gain
  // CPUs because its fabric spun up worker threads.
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(original), &original), 0);
  if (CPU_COUNT(&original) < 2) GTEST_SKIP() << "needs two usable CPUs";
  int cpu = CPU_SETSIZE - 1;
  while (!CPU_ISSET(cpu, &original)) --cpu; // the highest CPU in the mask
  // Threads that existed before the narrowing (a sanitizer's runtime
  // thread, say) keep their own masks; only the fabric's are checked.
  std::vector<std::string> before;
  for (const auto& [tid, cpus] : thread_cpu_lists()) before.push_back(tid);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one), 0);

  std::vector<std::pair<std::string, std::string>> after;
  {
    // 4x8 with the forced 1D layout: two row strips, so two workers.
    Fabric fabric(4, 8, {}, {}, ShardGrid{0, 1});
    fabric.set_threads(2);
    ASSERT_EQ(fabric.shard_count(), 2u);
    fabric.load([](PeCoord) {
      return bc_program([](ImageBuilder&, bc::Builder& b) {
        b.halt();
        b.ret();
      });
    });
    EXPECT_TRUE(fabric.run().all_halted);
    after = thread_cpu_lists(); // the pool's thread is still alive here
  }
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(original), &original), 0);

  const std::string self = std::to_string(gettid());
  u32 spawned = 0;
  for (const auto& [tid, cpus] : after) {
    if (tid != self &&
        std::find(before.begin(), before.end(), tid) != before.end())
      continue;
    spawned += tid != self;
    EXPECT_EQ(cpus, std::to_string(cpu)) << "thread " << tid;
  }
  EXPECT_EQ(spawned, 1u); // the one worker besides the calling thread
}

TEST(WorkerPool, ManyRoundsOnFourWorkersNeverLoseAWakeup) {
  constexpr u32 kWorkers = 4;
  constexpr u32 kRounds = 20000;
  std::array<std::atomic<u32>, kWorkers> stamp{};
  std::atomic<u64> mismatches{0};
  run_with_deadline(
      [&] {
        FabricWorkerPool pool(kWorkers);
        for (u32 round = 1; round <= kRounds; ++round) {
          pool.run_round([&](u32 worker, u32 phase) {
            if (phase == 0) {
              stamp[worker].store(round, std::memory_order_relaxed);
              return;
            }
            // Phase 1 starts after every worker's phase 0: all stamps read
            // this round.
            for (const auto& s : stamp)
              if (s.load(std::memory_order_relaxed) != round)
                mismatches.fetch_add(1, std::memory_order_relaxed);
          });
        }
      },
      std::chrono::seconds(120), "FabricWorkerPool");
  EXPECT_EQ(mismatches.load(), 0u);
  for (const auto& s : stamp) EXPECT_EQ(s.load(), kRounds);
}

TEST(WorkerPool, SleepingBarrierNeverLosesAWakeup) {
  // No spinning: every non-final arrival goes straight to sleep, which is
  // the path a lost wakeup deadlocks.
  constexpr u32 kParties = 4;
  constexpr u32 kRounds = 20000;
  SpinBarrier barrier(kParties, /*spin_iters=*/0);
  std::atomic<u64> passed{0};
  run_with_deadline(
      [&] {
        std::vector<std::thread> threads;
        for (u32 t = 0; t < kParties; ++t)
          threads.emplace_back([&] {
            for (u32 round = 0; round < kRounds; ++round) {
              barrier.arrive_and_wait();
              passed.fetch_add(1, std::memory_order_relaxed);
            }
          });
        for (std::thread& t : threads) t.join();
      },
      std::chrono::seconds(120), "SpinBarrier");
  EXPECT_EQ(passed.load(), u64{kParties} * kRounds);
}

} // namespace
} // namespace fvdf::wse
