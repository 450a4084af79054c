// Fabric integration tests with tiny hand-written PE programs: wavelet
// delivery, inbox buffering, completion callbacks, control-wavelet switch
// advancement, backpressure stalls, edge drops, halt semantics, timing
// determinism and statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "csl/allreduce.hpp"
#include "csl/halo.hpp"
#include "csl/lowering.hpp"
#include "wse/bytecode.hpp"
#include "wse/event_queue.hpp"
#include "wse/fabric.hpp"

#include "bc_test_program.hpp"
#include "golden_digest.hpp"

namespace fvdf::wse {
namespace {

using test_util::bc_program;

ColorConfig to_east() {
  ColorConfig config;
  config.positions = {SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)}};
  return config;
}

ColorConfig from_west() {
  ColorConfig config;
  config.positions = {SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)}};
  return config;
}

// Sender half of the point-to-point tests: PE (0,0) sends `words`
// words (1, 2, ... unless `values` is given) east, then halts.
void emit_send_east(ImageBuilder& ctx, bc::Builder& b, Color data, u32 words,
                    const std::vector<f32>& values = {}) {
  ctx.configure_router(data, to_east());
  const MemSpan src = ctx.memory().alloc_f32("src", words);
  for (u32 i = 0; i < words; ++i)
    ctx.memory().store(src.offset_words + i,
                       values.empty() ? static_cast<f32>(i + 1) : values[i]);
  b.send(data, b.dsd(dsd(src)));
  b.halt();
  b.ret();
}

// Receiver half: arms one `words`-word receive on `data`; its completion
// halts the PE.
void emit_recv_then_halt(ImageBuilder& ctx, bc::Builder& b, Color data,
                         Color done, u32 words) {
  const MemSpan dst = ctx.memory().alloc_f32("dst", words);
  const auto on_done = b.make_label();
  b.seth(done, on_done);
  b.recv(data, b.dsd(dsd(dst)), done);
  b.ret();
  b.bind(on_done);
  b.halt();
  b.ret();
}

TEST(Fabric, PointToPointTransferDeliversWordsInOrder) {
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kDone = 24;

  fabric.load([&](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      if (coord.x == 0) {
        emit_send_east(ctx, b, kData, 4);
      } else {
        ctx.configure_router(kData, from_west());
        emit_recv_then_halt(ctx, b, kData, kDone, 4);
      }
    });
  });
  const auto result = fabric.run();
  EXPECT_TRUE(result.all_halted);
  for (u32 i = 0; i < 4; ++i)
    EXPECT_FLOAT_EQ(fabric.pe_memory(1, 0).load(i), static_cast<f32>(i + 1));
  EXPECT_EQ(fabric.stats().words_delivered, 4u);
  EXPECT_GT(result.cycles, 0.0);
}

TEST(Fabric, InboxBuffersDataArrivingBeforeRecv) {
  // The receiver registers its descriptor only when poked by a later local
  // activation; words must wait in the inbox meanwhile.
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kPoke = 25;
  constexpr Color kDone = 26;

  fabric.load([&](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      if (coord.x == 0) {
        emit_send_east(ctx, b, kData, 2, {5.0f, 6.0f});
        return;
      }
      ctx.configure_router(kData, from_west());
      (void)ctx.memory().alloc_f32("dst", 2);
      // No recv yet; let the data arrive first, then poke ourselves.
      const auto poke = b.make_label();
      const auto done = b.make_label();
      b.seth(kPoke, poke);
      b.seth(kDone, done);
      b.act(kPoke);
      b.ret();
      b.bind(poke);
      b.recv(kData, b.dsd(Dsd{0, 2, 1}), kDone);
      b.ret();
      b.bind(done);
      b.halt();
      b.ret();
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_FLOAT_EQ(fabric.pe_memory(1, 0).load(0), 5.0f);
  EXPECT_FLOAT_EQ(fabric.pe_memory(1, 0).load(1), 6.0f);
}

TEST(Fabric, MultiHopChainForwardsThroughMiddleRouter) {
  // PE0 -> PE2 through PE1's router (rx West, tx East) without touching
  // PE1's CPU.
  Fabric fabric(3, 1);
  constexpr Color kData = 1;
  constexpr Color kDone = 24;

  fabric.load([&](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      if (coord.x == 0) {
        emit_send_east(ctx, b, kData, 1, {9.0f});
      } else if (coord.x == 1) {
        ColorConfig passthrough;
        passthrough.positions = {
            SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::East)}};
        ctx.configure_router(kData, passthrough);
        b.halt();
        b.ret();
      } else {
        ctx.configure_router(kData, from_west());
        emit_recv_then_halt(ctx, b, kData, kDone, 1);
      }
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_FLOAT_EQ(fabric.pe_memory(2, 0).load(0), 9.0f);
  EXPECT_EQ(fabric.stats().wavelet_hops, 2u); // two link traversals
}

TEST(Fabric, BroadcastFanoutDeliversToRampAndForwards) {
  // PE1 taps and forwards: one send reaches PE1 and PE2.
  Fabric fabric(3, 1);
  constexpr Color kData = 2;
  constexpr Color kDone = 24;

  fabric.load([&](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      if (coord.x == 0) {
        emit_send_east(ctx, b, kData, 1, {4.5f});
        return;
      }
      if (coord.x == 1) {
        ColorConfig tap;
        tap.positions = {SwitchPosition{DirMask::of(Dir::West),
                                        DirMask::of(Dir::Ramp, Dir::East)}};
        ctx.configure_router(kData, tap);
      } else {
        ctx.configure_router(kData, from_west());
      }
      emit_recv_then_halt(ctx, b, kData, kDone, 1);
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_FLOAT_EQ(fabric.pe_memory(1, 0).load(0), 4.5f);
  EXPECT_FLOAT_EQ(fabric.pe_memory(2, 0).load(0), 4.5f);
  EXPECT_EQ(fabric.stats().words_delivered, 2u);
}

TEST(Fabric, ControlWaveletAdvancesEveryRouterItTraverses) {
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kDone = 24;

  fabric.load([&](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      ColorConfig ring;
      if (coord.x == 0) {
        ring.positions = {
            SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
            SwitchPosition{DirMask::of(Dir::East), DirMask::of(Dir::Ramp)}};
      } else {
        ring.positions = {
            SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)},
            SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::West)}};
      }
      ring.ring_mode = true;
      ctx.configure_router(kData, ring);
      if (coord.x == 0) {
        const MemSpan src = ctx.memory().alloc_f32("src", 1);
        ctx.memory().store(src.offset_words, 1.0f);
        // Data plus trailing control: both routers advance to pos 1.
        b.send(kData, b.dsd(dsd(src)), color_bit(kData));
        b.halt();
        b.ret();
      } else {
        emit_recv_then_halt(ctx, b, kData, kDone, 1);
      }
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_EQ(fabric.pe_router(0, 0).position(kData), 1u);
  EXPECT_EQ(fabric.pe_router(1, 0).position(kData), 1u);
  EXPECT_GE(fabric.stats().control_wavelets, 1u);
}

// Receiver of the backpressure tests: its switch starts in `positions`
// (accepting West only in the last one), arms a 1-word receive, burns
// enough cycles that the flit arrives (and stalls) first, then each poke
// advances the switch once.
void emit_stalling_receiver(ImageBuilder& ctx, bc::Builder& b, Color data,
                            std::vector<SwitchPosition> positions,
                            const std::vector<Color>& pokes, Color done) {
  ColorConfig config;
  config.positions = std::move(positions);
  ctx.configure_router(data, config);
  const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
  const MemSpan scratch = ctx.memory().alloc_f32("scratch", 512);
  std::vector<bc::Builder::Label> handlers;
  for (Color poke : pokes) {
    handlers.push_back(b.make_label());
    b.seth(poke, handlers.back());
  }
  const auto on_done = b.make_label();
  b.seth(done, on_done);
  b.recv(data, b.dsd(dsd(dst)), done);
  b.vmovi(b.dsd(dsd(scratch)), 0.0f);
  b.act(pokes.front());
  b.ret();
  for (std::size_t i = 0; i < pokes.size(); ++i) {
    b.bind(handlers[i]);
    b.advl(color_bit(data)); // the parked flit re-dispatches
    if (i + 1 < pokes.size()) b.act(pokes[i + 1]);
    b.ret();
  }
  b.bind(on_done);
  b.halt();
  b.ret();
}

TEST(Fabric, BackpressureStallsUntilAdvance) {
  // The receiver's switch starts in a position that rejects West arrivals;
  // the flit must park and deliver only after a local advance.
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kPoke = 25;
  constexpr Color kDone = 26;

  fabric.load([&](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      if (coord.x == 0) {
        emit_send_east(ctx, b, kData, 1, {2.5f});
        return;
      }
      emit_stalling_receiver(
          ctx, b, kData,
          {SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
           SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)}},
          {kPoke}, kDone);
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_FLOAT_EQ(fabric.pe_memory(1, 0).load(0), 2.5f);
  EXPECT_GE(fabric.stats().flits_stalled, 1u);
}

TEST(Fabric, EdgeSendsAreDroppedAndCounted) {
  Fabric fabric(1, 1);
  constexpr Color kData = 0;
  fabric.load([&](PeCoord) {
    return bc_program([](ImageBuilder& ctx, bc::Builder& b) {
      emit_send_east(ctx, b, kData, 3);
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_EQ(fabric.stats().words_dropped, 3u);
  EXPECT_EQ(fabric.stats().words_delivered, 0u);
}

TEST(Fabric, RunIsDeterministic) {
  auto run_once = [] {
    Fabric fabric(3, 3);
    constexpr Color kData = 0;
    constexpr Color kDone = 24;
    fabric.load([&](PeCoord coord) {
      return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
        if (coord.x == 0) {
          std::vector<f32> values;
          for (u32 i = 0; i < 8; ++i)
            values.push_back(static_cast<f32>(coord.y * 100 + i));
          emit_send_east(ctx, b, kData, 8, values);
        } else if (coord.x == 1) {
          ctx.configure_router(kData, from_west());
          const MemSpan dst = ctx.memory().alloc_f32("dst", 8);
          const auto done = b.make_label();
          b.seth(kDone, done);
          b.recv(kData, b.dsd(dsd(dst)), kDone);
          b.ret();
          // Burn deterministic compute time proportional to the data.
          b.bind(done);
          const u8 data = b.dsd(Dsd{0, 8, 1});
          b.vmuli(data, data, 2.0f);
          b.halt();
          b.ret();
        } else {
          b.halt();
          b.ret();
        }
      });
    });
    const auto result = fabric.run();
    return std::make_pair(result.cycles, fabric.stats().events_processed);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Fabric, CycleLimitStopsRunawayPrograms) {
  Fabric fabric(1, 1);
  constexpr Color kLoop = 24;
  fabric.load([&](PeCoord) {
    return bc_program([](ImageBuilder&, bc::Builder& b) {
      const auto loop = b.make_label();
      b.seth(kLoop, loop);
      b.act(kLoop);
      b.ret();
      // Ping-pong forever, each task burning a little time.
      b.bind(loop);
      b.sadd(0, 1, 2);
      b.act(kLoop);
      b.ret();
    });
  });
  const auto result = fabric.run(/*max_cycles=*/5000);
  EXPECT_FALSE(result.all_halted);
  EXPECT_TRUE(result.hit_cycle_limit);
}

TEST(Fabric, SendCompletionFiresAfterInjection) {
  // Both PEs halt only in their kSent handler: the sender's runs once its
  // message has left the ramp, the receiver's once the words landed.
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kSent = 24;
  fabric.load([&](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      const auto sent = b.make_label();
      b.seth(kSent, sent);
      if (coord.x == 0) {
        ctx.configure_router(kData, to_east());
        const MemSpan src = ctx.memory().alloc_f32("src", 16);
        b.send(kData, b.dsd(dsd(src)), 0, kSent);
      } else {
        ctx.configure_router(kData, from_west());
        const MemSpan dst = ctx.memory().alloc_f32("dst", 16);
        b.recv(kData, b.dsd(dsd(dst)), kSent);
      }
      b.ret();
      b.bind(sent);
      b.halt();
      b.ret();
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_EQ(fabric.stats().tasks_run, 4u); // two starts + two completions
}

TEST(Fabric, StatsAggregateCounters) {
  Fabric fabric(2, 2);
  fabric.load([&](PeCoord) {
    return bc_program([](ImageBuilder& ctx, bc::Builder& b) {
      const u8 a = b.dsd(dsd(ctx.memory().alloc_f32("a", 10)));
      b.vmovi(a, 1.0f);
      b.vmuli(a, a, 2.0f);
      b.halt();
      b.ret();
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  const OpCounters total = fabric.total_counters();
  EXPECT_EQ(total.count(Opcode::FMOV), 4u * 10);
  EXPECT_EQ(total.count(Opcode::FMUL), 4u * 10);
  EXPECT_EQ(total.total_flops(), 4u * 10);
  EXPECT_EQ(fabric.pe_counters(0, 0).count(Opcode::FMUL), 10u);
}

std::unique_ptr<PeProgram> halt_program() {
  return bc_program([](ImageBuilder&, bc::Builder& b) {
    b.halt();
    b.ret();
  });
}

TEST(Fabric, InvalidUsagesThrow) {
  Fabric fabric(1, 1);
  EXPECT_THROW(fabric.run(), Error); // run before load
  fabric.load([&](PeCoord) { return halt_program(); });
  EXPECT_THROW(fabric.load([&](PeCoord) { return halt_program(); }),
               Error); // double load
  EXPECT_TRUE(fabric.run().all_halted);
}

TEST(Fabric, LoadAppliesEachImageBeforeTheRun) {
  // load() installs every image's routes, allocation map and uploaded
  // bytes; the run only interprets the streams.
  Fabric fabric(2, 1);
  fabric.load([](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      ctx.configure_router(0, coord.x == 0 ? to_east() : from_west());
      const MemSpan span = ctx.memory().alloc_f32("value", 1);
      ctx.memory().store(span.offset_words, 10.0f + static_cast<f32>(coord.x));
      b.halt();
      b.ret();
    });
  });
  EXPECT_TRUE(fabric.pe_router(0, 0).is_configured(0));
  EXPECT_TRUE(fabric.pe_router(1, 0).positions(0)[0].rx.contains(Dir::West));
  EXPECT_EQ(fabric.pe_memory(1, 0).load(0), 11.0f);
  EXPECT_NE(fabric.pe_memory(0, 0).allocation_map().find("value"),
            std::string::npos);
  EXPECT_EQ(fabric.distinct_bytecode_programs().size(), 2u);
  EXPECT_TRUE(fabric.run().all_halted);
}

TEST(Fabric, ArenaOverflowThrowsAtLoad) {
  Fabric fabric(1, 1, {}, PeMemoryParams{1024, 0});
  try {
    fabric.load([](PeCoord) {
      return bc_program([](ImageBuilder& ctx, bc::Builder& b) {
        (void)ctx.memory().alloc_f32("too-big", 300); // 1200 B > 1024 B
        b.ret();
      });
    });
    FAIL() << "an image past the arena must not load";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("PE memory overflow allocating "
                                         "'too-big'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Fabric, ActivatingAColorWithNoBoundHandlerThrows) {
  // The interpreter is the only dispatch path: an activation the stream
  // never bound a handler for is a program bug, never silently dropped.
  Fabric fabric(1, 1);
  constexpr Color kUnbound = 26;
  fabric.load([&](PeCoord) {
    return bc_program([](ImageBuilder&, bc::Builder& b) {
      b.act(kUnbound);
      b.ret();
    });
  });
  try {
    fabric.run();
    FAIL() << "an unbound task color must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("task color 26"), std::string::npos)
        << e.what();
  }
}

TEST(Fabric, HostAccessorsRejectOutOfRangeCoordinates) {
  Fabric fabric(3, 2);
  EXPECT_THROW(fabric.pe_memory(-1, 0), Error);
  EXPECT_THROW(fabric.pe_memory(3, 0), Error);
  EXPECT_THROW(fabric.pe_memory(0, 2), Error);
  EXPECT_THROW(fabric.pe_router(0, -1), Error);
  EXPECT_THROW(fabric.pe_router(5, 5), Error);
  EXPECT_THROW(fabric.pe_counters(-2, 1), Error);
  EXPECT_NO_THROW(fabric.pe_memory(2, 1));
  EXPECT_NO_THROW(fabric.pe_router(0, 0));
  EXPECT_NO_THROW(fabric.pe_counters(2, 1));
}

TEST(Fabric, RejectedAdvanceReparksWithoutEventOrTraceInflation) {
  // The receiver's switch cycles through two rejecting positions before an
  // accepting one. The advance through a still-rejecting position must
  // re-park the flit directly: exactly one FlitStalled record and stall
  // count, no matter how many advances it takes to release it.
  Fabric fabric(2, 1);
  TraceBuffer trace;
  fabric.set_trace(trace.sink());
  constexpr Color kData = 0;
  constexpr Color kPoke = 25;
  constexpr Color kPoke2 = 26;
  constexpr Color kDone = 27;

  fabric.load([&](PeCoord coord) {
    return bc_program([coord](ImageBuilder& ctx, bc::Builder& b) {
      if (coord.x == 0) {
        emit_send_east(ctx, b, kData, 1, {3.5f});
        return;
      }
      // Position 1 still rejects; the second poke reaches position 2.
      emit_stalling_receiver(
          ctx, b, kData,
          {SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
           SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
           SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)}},
          {kPoke, kPoke2}, kDone);
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_FLOAT_EQ(fabric.pe_memory(1, 0).load(0), 3.5f);
  EXPECT_EQ(fabric.stats().flits_stalled, 1u);
  EXPECT_EQ(trace.count(TraceEvent::FlitStalled), 1u);
}

TEST(Fabric, OneAdvanceReleasesFlitsParkedOnTwoColors) {
  // Flits park on two colors of the receiver; one local advance of both
  // releases them in color order. A's flit carries a trailing control that
  // advances B past its accepting position, so the release of A re-enters
  // the release of B and re-parks B's flit: B must stay parked (and stay
  // releasable) until the second poke, never delivered early or lost.
  Fabric fabric(2, 1);
  TraceBuffer trace;
  fabric.set_trace(trace.sink());
  constexpr Color kA = 0;
  constexpr Color kB = 1;
  constexpr Color kPoke = 25;
  constexpr Color kPoke2 = 26;
  constexpr Color kDoneA = 27;
  constexpr Color kDoneB = 28;
  const SwitchPosition reject{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)};
  const SwitchPosition accept{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)};

  fabric.load([&](PeCoord coord) {
    return bc_program([&, coord](ImageBuilder& ctx, bc::Builder& b) {
      if (coord.x == 0) {
        ctx.configure_router(kA, to_east());
        ctx.configure_router(kB, to_east());
        const MemSpan src_a = ctx.memory().alloc_f32("src.a", 1);
        const MemSpan src_b = ctx.memory().alloc_f32("src.b", 1);
        ctx.memory().store(src_a.offset_words, 1.5f);
        ctx.memory().store(src_b.offset_words, 2.5f);
        b.send(kA, b.dsd(dsd(src_a)), color_bit(kB));
        b.send(kB, b.dsd(dsd(src_b)));
        b.halt();
        b.ret();
        return;
      }
      ctx.configure_router(kA, ColorConfig{{reject, accept}, false});
      ctx.configure_router(kB, ColorConfig{{reject, accept, reject, accept}, false});
      const MemSpan dst_a = ctx.memory().alloc_f32("dst.a", 1);
      const MemSpan dst_b = ctx.memory().alloc_f32("dst.b", 1);
      const MemSpan scratch = ctx.memory().alloc_f32("scratch", 512);
      const auto on_poke = b.make_label();
      const auto on_poke2 = b.make_label();
      const auto on_done_a = b.make_label();
      const auto on_done_b = b.make_label();
      b.seth(kPoke, on_poke);
      b.seth(kPoke2, on_poke2);
      b.seth(kDoneA, on_done_a);
      b.seth(kDoneB, on_done_b);
      b.recv(kA, b.dsd(dsd(dst_a)), kDoneA);
      b.recv(kB, b.dsd(dsd(dst_b)), kDoneB);
      b.vmovi(b.dsd(dsd(scratch)), 0.0f); // both flits arrive and park first
      b.act(kPoke);
      b.ret();
      b.bind(on_poke);
      b.advl(color_bit(kA) | color_bit(kB));
      b.act(kPoke2);
      b.ret();
      b.bind(on_poke2);
      b.advl(color_bit(kB));
      b.ret();
      b.bind(on_done_a);
      b.ret();
      b.bind(on_done_b);
      b.halt();
      b.ret();
    });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_FLOAT_EQ(fabric.pe_memory(1, 0).load(0), 1.5f);
  EXPECT_FLOAT_EQ(fabric.pe_memory(1, 0).load(1), 2.5f);
  EXPECT_EQ(fabric.stats().flits_stalled, 2u);
  EXPECT_EQ(trace.count(TraceEvent::FlitStalled), 2u);
  EXPECT_EQ(fabric.pe_router(1, 0).position(kA), 1u);
  EXPECT_EQ(fabric.pe_router(1, 0).position(kB), 3u);
  // B's words reach the ramp only in the second poke's task.
  f64 poke2_start = -1;
  f64 b_delivered = -1;
  for (const TraceRecord& r : trace.records()) {
    if (r.at != PeCoord{1, 0}) continue;
    if (r.event == TraceEvent::TaskRun && r.color == kPoke2) poke2_start = r.cycles;
    if (r.event == TraceEvent::RampDelivery && r.color == kB) b_delivered = r.cycles;
  }
  ASSERT_GE(poke2_start, 0);
  EXPECT_GE(b_delivered, poke2_start);
}

TEST(Fabric, LargerMessagesTakeLongerOnTheLink) {
  auto timed_transfer = [](u32 words) {
    Fabric fabric(2, 1);
    constexpr Color kData = 0;
    constexpr Color kDone = 24;
    fabric.load([&](PeCoord coord) {
      return bc_program([coord, words](ImageBuilder& ctx, bc::Builder& b) {
        if (coord.x == 0) {
          emit_send_east(ctx, b, kData, words);
        } else {
          ctx.configure_router(kData, from_west());
          emit_recv_then_halt(ctx, b, kData, kDone, words);
        }
      });
    });
    return fabric.run().cycles;
  };
  EXPECT_GT(timed_transfer(256), timed_transfer(8));
}

// --- bytecode collectives ---------------------------------------------------
// The lowered Table-I collectives (csl/lowering.hpp), each wrapped in a
// hand-built bytecode program, are pinned by a frozen digest per fabric
// shape over the cycle total, every fabric statistic (message counts,
// hops, task activations) and every buffer word.

f32 cell_fingerprint(i64 x, i64 y, u32 z) {
  return static_cast<f32>(x * 10000 + y * 100 + static_cast<i64>(z));
}

// Buffers of one halo test PE (the same offsets on every PE).
struct HaloBuffers {
  MemSpan column{}, west{}, east{}, south{}, north{};
};

// One four-step halo exchange lowered through csl::HaloEmitter, then halt.
std::unique_ptr<PeProgram> halo_program(u32 nz, HaloBuffers* out) {
  return bc_program([nz, out](ImageBuilder& ctx, bc::Builder& b) {
    csl::HaloExchange().configure(ctx);
    HaloBuffers& L = *out;
    L.column = ctx.memory().alloc_f32("column", nz);
    for (u32 z = 0; z < nz; ++z)
      ctx.memory().store(L.column.offset_words + z,
                         cell_fingerprint(ctx.coord().x, ctx.coord().y, z));
    for (MemSpan* buf : {&L.west, &L.east, &L.south, &L.north}) {
      *buf = ctx.memory().alloc_f32("halo", nz);
      for (u32 z = 0; z < nz; ++z)
        ctx.memory().store(buf->offset_words + z, -1.0f);
    }

    csl::HaloEmitter::Spec spec;
    spec.column = dsd(L.column);
    spec.west = dsd(L.west);
    spec.east = dsd(L.east);
    spec.south = dsd(L.south);
    spec.north = dsd(L.north);
    spec.cont_reg = 0;
    spec.pending_ureg = 0;
    csl::HaloEmitter halo(b, ctx.coord(), ctx.fabric_width(), ctx.fabric_height(),
                          std::move(spec));
    const auto done = b.make_label();
    b.setc(0, done);
    halo.emit_start();
    b.ret(); // the start sequence falls through to the caller's next op
    b.bind(done);
    b.halt();
    b.ret(); // HALT records the halt but does not stop interpretation
    halo.emit_handlers();
  });
}

TEST(BytecodeCollectives, HaloExchangeMatchesGolden) {
  constexpr u32 nz = 6;
  const struct {
    i64 width, height;
    const char* digest;
  } kShapes[] = {{1, 1, "c3c4bb03f04b5754"}, {2, 2, "751d21ad7d823678"}, {4, 3, "f94aa204c2ff81ea"},
                 {3, 4, "b2448a3ec7c3dd64"}, {5, 1, "def06d971059e14a"}, {1, 5, "5bd9a2c174afd80c"}};
  for (const auto& [width, height, digest] : kShapes) {
    Fabric bc_fabric(width, height);
    HaloBuffers L;
    bc_fabric.load([&](PeCoord) { return halo_program(nz, &L); });
    const auto bc_run = bc_fabric.run();
    ASSERT_TRUE(bc_run.all_halted) << width << "x" << height;
    for (const bc::Program* program : bc_fabric.distinct_bytecode_programs())
      EXPECT_TRUE(bc::lint_program(*program).empty());

    // Every word of every buffer — column untouched, halos delivered.
    golden::Digest d;
    d.add(bc_run.cycles).add(bc_fabric.stats());
    for (i64 y = 0; y < height; ++y) {
      for (i64 x = 0; x < width; ++x) {
        PeMemory& bm = bc_fabric.pe_memory(x, y);
        for (const MemSpan* span : {&L.column, &L.west, &L.east, &L.south, &L.north}) {
          for (u32 z = 0; z < nz; ++z) {
            d.add(bm.load(span->offset_words + z));
          }
        }
      }
    }
    EXPECT_EQ(d.hex(), digest) << width << "x" << height;
  }
}

// Whole-fabric all-reduce, one round, result stored to a known slot.
std::unique_ptr<PeProgram> reduce_program(f32 value, MemSpan* result) {
  return bc_program([value, result](ImageBuilder& ctx, bc::Builder& b) {
    csl::AllReduce reduce;
    reduce.configure(ctx); // allocates the value/in slots + routes
    *result = ctx.memory().alloc_f32("result", 1);

    csl::ReduceEmitter::Spec spec;
    spec.slot_value = reduce.slot_value().offset_words;
    spec.slot_in = reduce.slot_in().offset_words;
    spec.cont_reg = 1;
    csl::ReduceEmitter emitter(b, ctx.coord(), ctx.fabric_width(),
                               ctx.fabric_height(), spec);
    const auto after = b.make_label();
    emitter.emit_handler_bindings();
    b.umovi(0, value); // contribution in f0
    b.setc(1, after);
    b.jmp(emitter.start_label());
    b.bind(after); // fabric total back in f0
    b.rstore(0, result->offset_words);
    b.halt();
    b.ret(); // HALT records the halt but does not stop interpretation
    emitter.emit_blocks();
  });
}

TEST(BytecodeCollectives, AllReduceMatchesGolden) {
  const struct {
    i64 width, height;
    const char* digest;
  } kShapes[] = {{1, 1, "9bb18599aa7470f2"}, {2, 1, "4ec63b4681b65def"}, {1, 3, "c7ab62bc6b7233b1"},
                 {3, 2, "7d23d9f9275b9035"}, {4, 4, "3bedba674a8df142"}, {5, 3, "241239b5c678a9c6"}};
  for (const auto& [width, height, digest] : kShapes) {
    auto value_of = [](PeCoord c) {
      return 0.25f * static_cast<f32>(c.x) - 0.75f * static_cast<f32>(c.y) + 1.0f;
    };

    Fabric bc_fabric(width, height);
    MemSpan result{};
    bc_fabric.load([&](PeCoord c) { return reduce_program(value_of(c), &result); });
    const auto bc_run = bc_fabric.run();
    ASSERT_TRUE(bc_run.all_halted) << width << "x" << height;
    for (const bc::Program* program : bc_fabric.distinct_bytecode_programs())
      EXPECT_TRUE(bc::lint_program(*program).empty());

    golden::Digest d;
    d.add(bc_run.cycles).add(bc_fabric.stats());
    for (i64 y = 0; y < height; ++y) {
      for (i64 x = 0; x < width; ++x) {
        const f32 bc_total = bc_fabric.pe_memory(x, y).load(result.offset_words);
        d.add(bc_total);
        EXPECT_NE(bc_total, 0.0f); // the reduction actually ran
      }
    }
    EXPECT_EQ(d.hex(), digest) << width << "x" << height;
  }
}

// --- EventQueue: differential against std::priority_queue -----------------
// Every test drives the calendar queue and a priority_queue on the same
// (t, order) keys and requires the same top after every operation and the
// same pop sequence.

struct Keyed {
  f64 t = 0;
  u64 order = 0;
};

struct KeyedLater {
  bool operator()(const Keyed& a, const Keyed& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.order > b.order;
  }
};

class QueueDiff {
public:
  explicit QueueDiff(u64 seed) : rng_(seed) {}

  /// Pushes an event at `t` under a fresh random tie-break key (unique via
  /// its low bits).
  void push(f64 t) { push(Keyed{t, rng_.next_u64() << 24 | next_++}); }

  /// Pushes `event` as given; its (t, order) must not be pending already.
  void push(const Keyed& event) {
    model_.push(event);
    queue_.push(Keyed(event));
    expect_same_top();
  }

  Keyed pop() {
    EXPECT_FALSE(queue_.empty());
    const Keyed expected = model_.top();
    model_.pop();
    const Keyed got = queue_.pop();
    EXPECT_EQ(got.t, expected.t);
    EXPECT_EQ(got.order, expected.order);
    last_popped_ = got.t;
    expect_same_top();
    return got;
  }

  void drain() {
    while (!model_.empty()) pop();
    EXPECT_TRUE(queue_.empty());
  }

  /// visit() shows each pending event exactly once.
  void expect_visit_sees_all() const {
    std::vector<Keyed> seen;
    queue_.visit([&](const Keyed& event) {
      seen.push_back(event);
      return true;
    });
    std::sort(seen.begin(), seen.end(), [](const Keyed& a, const Keyed& b) {
      return KeyedLater{}(b, a);
    });
    auto model = model_;
    ASSERT_EQ(seen.size(), model.size());
    for (const Keyed& event : seen) {
      EXPECT_EQ(event.t, model.top().t);
      EXPECT_EQ(event.order, model.top().order);
      model.pop();
    }
  }

  std::size_t size() const { return model_.size(); }
  f64 top_t() const { return model_.top().t; }
  f64 last_popped() const { return last_popped_; }
  Rng& rng() { return rng_; }
  EventQueue<Keyed>& queue() { return queue_; }

private:
  void expect_same_top() const {
    ASSERT_EQ(queue_.size(), model_.size());
    if (model_.empty()) return;
    EXPECT_EQ(queue_.top().t, model_.top().t);
    EXPECT_EQ(queue_.top().order, model_.top().order);
  }

  Rng rng_;
  EventQueue<Keyed> queue_;
  std::priority_queue<Keyed, std::vector<Keyed>, KeyedLater> model_;
  u64 next_ = 0;
  f64 last_popped_ = 0;
};

TEST(EventQueue, EqualTimesPopInOrderKeyOrder) {
  QueueDiff diff(101);
  for (int round = 0; round < 20; ++round) {
    const f64 t = 0.5 * round;
    for (int i = 0; i < 300; ++i) diff.push(t);
    for (int i = 0; i < 150; ++i) diff.pop(); // half stay behind
  }
  diff.drain();
}

TEST(EventQueue, SubTickTimesPopInExactOrder) {
  QueueDiff diff(202);
  // Times off the half-cycle grid: several distinct times share a bucket,
  // and some land in the bucket of the last pop but before its time.
  for (int step = 0; step < 4000; ++step) {
    const f64 base = std::floor(diff.last_popped() * 2) / 2;
    const u64 pushes = diff.rng().uniform_index(4);
    for (u64 i = 0; i < pushes; ++i) {
      const f64 t = diff.rng().uniform() < 0.3
                        ? base + 0.5 * diff.rng().uniform()
                        : diff.last_popped() + 7.3 * diff.rng().uniform();
      diff.push(std::max(t, base));
    }
    if (diff.size() > 0 && diff.rng().uniform() < 0.6) diff.pop();
  }
  diff.drain();
}

TEST(EventQueue, OverflowEventsMoveIntoTheRing) {
  QueueDiff diff(303);
  // Beyond the ring's window, at its edge, and far beyond it, mixed with
  // near events; popping the near ones slides the window over the rest.
  const f64 window = 0.5 * static_cast<f64>(EventQueue<Keyed>::kBuckets);
  for (int i = 0; i < 200; ++i) {
    diff.push(diff.rng().uniform(0, 30));
    diff.push(window + diff.rng().uniform(-1, 1));
    diff.push(diff.rng().uniform(window, 10 * window));
    diff.push(1e6 + std::floor(diff.rng().uniform(0, 8)) * 0.25);
  }
  diff.expect_visit_sees_all();
  while (diff.size() > 0) {
    const Keyed popped = diff.pop();
    // Keep emitting relative to the advancing cursor, past the window too.
    if (diff.rng().uniform() < 0.2) diff.push(popped.t + diff.rng().uniform(0, 3 * window));
  }
  diff.drain();
}

TEST(EventQueue, SortedBatchesBelowTheTopButNotThePast) {
  QueueDiff diff(404);
  // The tiled engine's merge barrier: after a window, a batch sorted in
  // (t, order) order arrives below the current top but never before the
  // last event popped. top() peeks between batches and must not move the
  // window.
  f64 t = 0;
  for (int i = 0; i < 64; ++i) diff.push(t += diff.rng().uniform(0, 4));
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 5 && diff.size() > 1; ++i) diff.pop();
    const f64 lo = diff.last_popped();
    const f64 hi = diff.top_t();
    std::vector<f64> batch(diff.rng().uniform_index(6));
    for (f64& b : batch) b = diff.rng().uniform() < 0.2 ? lo : diff.rng().uniform(lo, hi);
    std::sort(batch.begin(), batch.end());
    for (const f64 b : batch) diff.push(b);
    diff.push(hi + diff.rng().uniform(0, 40));
  }
  diff.drain();
}

TEST(EventQueue, VisitSeesEveryPendingEventAndStopsEarly) {
  QueueDiff diff(505);
  for (int i = 0; i < 500; ++i) diff.push(std::floor(diff.rng().uniform(0, 5000)) * 0.5);
  diff.expect_visit_sees_all();
  for (int i = 0; i < 200; ++i) diff.pop();
  diff.expect_visit_sees_all();
  int visited = 0;
  diff.queue().visit([&](const Keyed&) { return ++visited < 7; });
  EXPECT_EQ(visited, 7);
}

TEST(EventQueue, RandomMixMatchesPriorityQueue) {
  QueueDiff diff(606);
  for (int step = 0; step < 100000; ++step) {
    const f64 now = diff.last_popped();
    const f64 u = diff.rng().uniform();
    if (u < 0.35 && diff.size() > 0) {
      diff.pop();
    } else if (u < 0.55) {
      diff.push(now); // same time as the last pop
    } else if (u < 0.9) {
      diff.push(now + 0.5 * static_cast<f64>(diff.rng().uniform_index(200)));
    } else if (u < 0.97) {
      diff.push(now + diff.rng().uniform(0, 100));
    } else {
      diff.push(now + diff.rng().uniform(2000, 9000));
    }
    if (step % 20000 == 0) diff.expect_visit_sees_all();
  }
  diff.drain();
}

TEST(EventQueue, PushesIntoTheDrainingBucketKeepItsOrder) {
  QueueDiff diff(707);
  // One half-cycle bucket, keys 1000, 1010, ..., 1990 pushed as two
  // interleaved ascending runs. Once it is being drained, pushes land below
  // its next event (the freed slot before the cursor), between pending
  // events, and after its last one, with pops in between.
  const f64 t = 12.0;
  for (u64 i = 0; i < 50; ++i) diff.push(Keyed{t, 1000 + 20 * i});
  for (u64 i = 0; i < 50; ++i) diff.push(Keyed{t, 1010 + 20 * i});
  for (int i = 0; i < 30; ++i) diff.pop(); // next pending: order 1300
  diff.push(Keyed{t, 1295});               // below the next event
  diff.push(Keyed{t, 1291});               // below it again
  diff.push(Keyed{t, 1305});               // between pending events
  diff.push(Keyed{t, 1999});               // after the last one
  diff.push(Keyed{t + 0.25, 1});           // later time, same bucket
  diff.push(Keyed{t + 0.125, 7});          // off-grid, between times
  diff.expect_visit_sees_all();
  for (u64 round = 0; round < 40; ++round) {
    diff.pop();
    const u64 base = 2000 + 10 * round;
    diff.push(Keyed{t, 1 + round});        // below every pending key
    diff.push(Keyed{t, base + 1});         // after the last one at t
    if (round % 3 == 0) diff.push(Keyed{t, 1500 + 2 * round + 1}); // between
    diff.pop();
  }
  diff.drain();
  // A fresh bucket takes more pushes below its next event than it has
  // freed slots before the cursor.
  for (u64 i = 0; i < 20; ++i) diff.push(Keyed{t + 5.0, 500 + i});
  for (int i = 0; i < 3; ++i) diff.pop();
  for (u64 i = 0; i < 14; ++i) diff.push(Keyed{t + 5.0, 100 + i});
  diff.expect_visit_sees_all();
  diff.drain();
}

TEST(EventQueue, ADrainingBucketStaysNearItsPendingPeak) {
  // Pop one, push one into the head bucket, 10,000 times, with at most
  // four events pending: the popped prefix is compacted before the bucket
  // grows, so its storage tracks the pending peak, not the push count.
  QueueDiff diff(808);
  const f64 t = 3.0;
  u64 order = 0;
  for (int i = 0; i < 4; ++i) diff.push(Keyed{t, order++});
  for (int round = 0; round < 10000; ++round) {
    diff.pop();
    diff.push(Keyed{t, order++});
    ASSERT_LE(diff.size(), 4u);
  }
  EXPECT_LE(diff.queue().reserved(), 16u);
  diff.drain();
}

TEST(EventQueue, TakeAllEmptiesAndRestartsTheWindow) {
  QueueDiff diff(909);
  for (int i = 0; i < 300; ++i) diff.push(diff.rng().uniform(0, 6000));
  for (int i = 0; i < 100; ++i) diff.pop();
  const std::size_t pending = diff.size();
  std::vector<Keyed> taken = diff.queue().take_all();
  EXPECT_EQ(taken.size(), pending);
  EXPECT_TRUE(diff.queue().empty());
  // The window restarted: an event before the last pop is accepted again.
  EventQueue<Keyed>& queue = diff.queue();
  queue.push(Keyed{0.5, 1});
  queue.push(Keyed{0.5, 0});
  EXPECT_EQ(queue.pop().order, 0u);
  EXPECT_EQ(queue.pop().order, 1u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, FutureBucketsFilledAsInterleavedRuns) {
  QueueDiff diff(808);
  // The fabric's arrival pattern: PEs in lock-step each emit an ascending
  // run of events into the same few future buckets, so a bucket fills as
  // several interleaved ascending runs that it must sort when opened.
  for (int wave = 0; wave < 30; ++wave) {
    const f64 now = std::floor(diff.last_popped() * 2) / 2;
    const u64 runs = 2 + diff.rng().uniform_index(7);
    for (u64 r = 0; r < runs; ++r)
      for (u64 pe = 0; pe < 64; ++pe) {
        const f64 t = now + 0.5 * static_cast<f64>(1 + (pe + r) % 3);
        diff.push(Keyed{t, (pe << 40) | (static_cast<u64>(wave) << 8) | r});
      }
    diff.expect_visit_sees_all();
    for (u64 i = 0, n = diff.size() * 3 / 4; i < n; ++i) diff.pop();
  }
  diff.drain();
}

TEST(EventQueue, BucketDrainsEmptiesAndRefillsWithinOneWindow) {
  QueueDiff diff(909);
  // The same bucket empties and fills again while the window stays put:
  // a refilled bucket starts a fresh run with its cursor reset.
  f64 t = 3.0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    const u64 n = 1 + diff.rng().uniform_index(40);
    for (u64 i = 0; i < n; ++i) diff.push(t + 0.5 * diff.rng().uniform());
    diff.push(t + 1.0); // keeps the ring non-empty past the bucket
    while (diff.size() > 0 && diff.top_t() < t + 0.5) {
      diff.pop();
      if (diff.rng().uniform() < 0.3) diff.push(diff.last_popped());
    }
    diff.expect_visit_sees_all();
    if (cycle % 4 == 3) t += 0.5;
  }
  diff.drain();
}

TEST(EventQueue, MergeBatchesIntoAPartlyDrainedBucket) {
  QueueDiff diff(1010);
  // The tiled engine's merge barrier hands over unsorted batches from up
  // to four neighbors; many land in the head bucket while it is being
  // drained, the rest in buckets that are not open yet.
  for (int round = 0; round < 300; ++round) {
    const f64 lo = diff.last_popped();
    const f64 bucket_end = std::floor(lo * 2) / 2 + 0.5;
    for (int side = 0; side < 4; ++side) {
      const u64 n = diff.rng().uniform_index(12);
      for (u64 i = 0; i < n; ++i) {
        const f64 u = diff.rng().uniform();
        diff.push(u < 0.5   ? diff.rng().uniform(lo, bucket_end)
                  : u < 0.7 ? lo
                            : lo + diff.rng().uniform(0, 6));
      }
    }
    if (round % 50 == 0) diff.expect_visit_sees_all();
    for (int i = 0; i < 25 && diff.size() > 0; ++i) diff.pop();
  }
  diff.drain();
}

TEST(EventQueue, OffGridTimesShareABucket) {
  QueueDiff diff(1111);
  // Times off the half-cycle grid: many distinct times per bucket, pushed
  // out of order into buckets both open and not yet open.
  for (int step = 0; step < 3000; ++step) {
    const f64 base = std::floor(diff.last_popped() * 2) / 2;
    for (u64 i = 0, n = diff.rng().uniform_index(5); i < n; ++i) {
      const f64 frac = std::floor(diff.rng().uniform(0, 64)) / 128.0;
      const f64 t = base + 0.5 * static_cast<f64>(diff.rng().uniform_index(3)) + frac;
      diff.push(std::max(t, diff.last_popped()));
    }
    if (diff.size() > 0 && diff.rng().uniform() < 0.55) diff.pop();
    if (step % 500 == 0) diff.expect_visit_sees_all();
  }
  diff.drain();
}

TEST(EventQueue, EventInThePastThrows) {
  EventQueue<Keyed> queue;
  queue.push(Keyed{10.0, 1});
  queue.push(Keyed{20.0, 2});
  EXPECT_EQ(queue.pop().t, 10.0);
  queue.push(Keyed{10.25, 3}); // the last pop's bucket: still allowed
  EXPECT_THROW(queue.push(Keyed{9.5, 4}), Error);
  EXPECT_EQ(queue.pop().t, 10.25);
  EXPECT_EQ(queue.pop().t, 20.0);
  EXPECT_TRUE(queue.empty());
}

} // namespace
} // namespace fvdf::wse
