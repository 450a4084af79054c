// Fabric integration tests with tiny hand-written PE programs: wavelet
// delivery, inbox buffering, completion callbacks, control-wavelet switch
// advancement, backpressure stalls, edge drops, halt semantics, timing
// determinism and statistics.

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "csl/allreduce.hpp"
#include "csl/halo.hpp"
#include "csl/lowering.hpp"
#include "wse/bytecode.hpp"
#include "wse/bytecode_interp.hpp"
#include "wse/fabric.hpp"

#include "golden_digest.hpp"

namespace fvdf::wse {
namespace {

// A configurable test program driven by lambdas.
class LambdaProgram final : public PeProgram {
public:
  using StartFn = std::function<void(PeContext&)>;
  using TaskFn = std::function<void(PeContext&, Color)>;
  LambdaProgram(StartFn start, TaskFn task)
      : start_(std::move(start)), task_(std::move(task)) {}

  void on_start(PeContext& ctx) override {
    if (start_) start_(ctx);
  }
  void on_task(PeContext& ctx, Color color) override {
    if (task_) task_(ctx, color);
  }

private:
  StartFn start_;
  TaskFn task_;
};

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

TEST(Fabric, PointToPointTransferDeliversWordsInOrder) {
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kDone = 24;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 4);
            for (u32 i = 0; i < 4; ++i)
              ctx.memory().store(src.offset_words + i, static_cast<f32>(i + 1));
            ctx.send(kData, dsd(src));
            ctx.halt();
          } else {
            ctx.configure_router(kData, from_west());
            const MemSpan dst = ctx.memory().alloc_f32("dst", 4);
            ctx.recv(kData, dsd(dst), kDone);
          }
        },
        [=](PeContext& ctx, Color color) {
          EXPECT_EQ(color, kDone);
          for (u32 i = 0; i < 4; ++i)
            EXPECT_FLOAT_EQ(ctx.memory().load(i), static_cast<f32>(i + 1));
          ctx.halt();
        });
  });
  const auto result = fabric.run();
  EXPECT_TRUE(result.all_halted);
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
  bool received = false;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 2);
            ctx.memory().store(src.offset_words, 5.0f);
            ctx.memory().store(src.offset_words + 1, 6.0f);
            ctx.send(kData, dsd(src));
            ctx.halt();
          } else {
            ctx.configure_router(kData, from_west());
            (void)ctx.memory().alloc_f32("dst", 2);
            // No recv yet; let the data arrive first, then poke ourselves.
            ctx.activate(kPoke);
          }
        },
        [&](PeContext& ctx, Color color) {
          if (color == kPoke) {
            ctx.recv(kData, Dsd{0, 2, 1}, kDone);
            return;
          }
          EXPECT_EQ(color, kDone);
          EXPECT_FLOAT_EQ(ctx.memory().load(0), 5.0f);
          EXPECT_FLOAT_EQ(ctx.memory().load(1), 6.0f);
          received = true;
          ctx.halt();
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_TRUE(received);
}

TEST(Fabric, MultiHopChainForwardsThroughMiddleRouter) {
  // PE0 -> PE2 through PE1's router (rx West, tx East) without touching
  // PE1's CPU.
  Fabric fabric(3, 1);
  constexpr Color kData = 1;
  constexpr Color kDone = 24;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 1);
            ctx.memory().store(src.offset_words, 9.0f);
            ctx.send(kData, dsd(src));
            ctx.halt();
          } else if (coord.x == 1) {
            ColorConfig passthrough;
            passthrough.positions = {
                SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::East)}};
            ctx.configure_router(kData, passthrough);
            ctx.halt();
          } else {
            ctx.configure_router(kData, from_west());
            const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
            ctx.recv(kData, dsd(dst), kDone);
          }
        },
        [=](PeContext& ctx, Color color) {
          EXPECT_EQ(color, kDone);
          EXPECT_FLOAT_EQ(ctx.memory().load(0), 9.0f);
          ctx.halt();
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_EQ(fabric.stats().wavelet_hops, 2u); // two link traversals
}

TEST(Fabric, BroadcastFanoutDeliversToRampAndForwards) {
  // PE1 taps and forwards: one send reaches PE1 and PE2.
  Fabric fabric(3, 1);
  constexpr Color kData = 2;
  constexpr Color kDone = 24;
  int deliveries = 0;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 1);
            ctx.memory().store(src.offset_words, 4.5f);
            ctx.send(kData, dsd(src));
            ctx.halt();
          } else if (coord.x == 1) {
            ColorConfig tap;
            tap.positions = {SwitchPosition{DirMask::of(Dir::West),
                                            DirMask::of(Dir::Ramp, Dir::East)}};
            ctx.configure_router(kData, tap);
            const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
            ctx.recv(kData, dsd(dst), kDone);
          } else {
            ctx.configure_router(kData, from_west());
            const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
            ctx.recv(kData, dsd(dst), kDone);
          }
        },
        [&](PeContext& ctx, Color) {
          EXPECT_FLOAT_EQ(ctx.memory().load(0), 4.5f);
          ++deliveries;
          ctx.halt();
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_EQ(deliveries, 2);
}

TEST(Fabric, ControlWaveletAdvancesEveryRouterItTraverses) {
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kDone = 24;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
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
            ctx.send(kData, dsd(src), color_bit(kData));
            ctx.halt();
          } else {
            const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
            ctx.recv(kData, dsd(dst), kDone);
          }
        },
        [](PeContext& ctx, Color) { ctx.halt(); });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_EQ(fabric.pe_router(0, 0).position(kData), 1u);
  EXPECT_EQ(fabric.pe_router(1, 0).position(kData), 1u);
  EXPECT_GE(fabric.stats().control_wavelets, 1u);
}

TEST(Fabric, BackpressureStallsUntilAdvance) {
  // The receiver's switch starts in a position that rejects West arrivals;
  // the flit must park and deliver only after a local advance.
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kPoke = 25;
  constexpr Color kDone = 26;
  bool delivered = false;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 1);
            ctx.memory().store(src.offset_words, 2.5f);
            ctx.send(kData, dsd(src));
            ctx.halt();
          } else {
            ColorConfig wrong_then_right;
            wrong_then_right.positions = {
                SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
                SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)}};
            ctx.configure_router(kData, wrong_then_right);
            const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
            ctx.recv(kData, dsd(dst), kDone);
            // Burn enough cycles that the flit arrives (and stalls) before
            // the poke flips the switch.
            const MemSpan scratch = ctx.memory().alloc_f32("scratch", 512);
            ctx.dsd().fmovs_imm(dsd(scratch), 0.0f);
            ctx.activate(kPoke);
          }
        },
        [&](PeContext& ctx, Color color) {
          if (color == kPoke) {
            // Flip to the accepting position; the parked flit re-dispatches.
            ctx.advance_local(color_bit(kData));
            return;
          }
          EXPECT_EQ(color, kDone);
          EXPECT_FLOAT_EQ(ctx.memory().load(0), 2.5f);
          delivered = true;
          ctx.halt();
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_TRUE(delivered);
  EXPECT_GE(fabric.stats().flits_stalled, 1u);
}

TEST(Fabric, EdgeSendsAreDroppedAndCounted) {
  Fabric fabric(1, 1);
  constexpr Color kData = 0;
  fabric.load([&](PeCoord) {
    return std::make_unique<LambdaProgram>(
        [](PeContext& ctx) {
          ctx.configure_router(kData, to_east());
          const MemSpan src = ctx.memory().alloc_f32("src", 3);
          ctx.send(kData, dsd(src));
          ctx.halt();
        },
        nullptr);
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
      return std::make_unique<LambdaProgram>(
          [coord](PeContext& ctx) {
            if (coord.x == 0) {
              ctx.configure_router(kData, to_east());
              const MemSpan src = ctx.memory().alloc_f32("src", 8);
              for (u32 i = 0; i < 8; ++i)
                ctx.memory().store(src.offset_words + i,
                                   static_cast<f32>(coord.y * 100 + i));
              ctx.send(kData, dsd(src));
              ctx.halt();
            } else if (coord.x == 1) {
              ctx.configure_router(kData, from_west());
              const MemSpan dst = ctx.memory().alloc_f32("dst", 8);
              ctx.recv(kData, dsd(dst), kDone);
            } else {
              ctx.halt();
            }
          },
          [](PeContext& ctx, Color) {
            // Burn deterministic compute time proportional to the data.
            auto& e = ctx.dsd();
            e.fmuls_imm(Dsd{0, 8, 1}, Dsd{0, 8, 1}, 2.0f);
            ctx.halt();
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
    return std::make_unique<LambdaProgram>(
        [](PeContext& ctx) { ctx.activate(kLoop); },
        [](PeContext& ctx, Color) {
          // Ping-pong forever, each task burning a little time.
          auto& e = ctx.dsd();
          (void)e.fadds_scalar(1.0f, 2.0f);
          ctx.activate(kLoop);
        });
  });
  const auto result = fabric.run(/*max_cycles=*/5000);
  EXPECT_FALSE(result.all_halted);
  EXPECT_TRUE(result.hit_cycle_limit);
}

TEST(Fabric, SendCompletionFiresAfterInjection) {
  Fabric fabric(2, 1);
  constexpr Color kData = 0;
  constexpr Color kSent = 24;
  bool sent = false;
  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 16);
            ctx.send(kData, dsd(src), 0, kSent);
          } else {
            ctx.configure_router(kData, from_west());
            const MemSpan dst = ctx.memory().alloc_f32("dst", 16);
            ctx.recv(kData, dsd(dst), kSent);
          }
        },
        [&](PeContext& ctx, Color color) {
          EXPECT_EQ(color, kSent);
          if (ctx.coord().x == 0) sent = true;
          ctx.halt();
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_TRUE(sent);
}

TEST(Fabric, StatsAggregateCounters) {
  Fabric fabric(2, 2);
  fabric.load([&](PeCoord) {
    return std::make_unique<LambdaProgram>(
        [](PeContext& ctx) {
          const MemSpan a = ctx.memory().alloc_f32("a", 10);
          ctx.dsd().fmovs_imm(dsd(a), 1.0f);
          ctx.dsd().fmuls_imm(dsd(a), dsd(a), 2.0f);
          ctx.halt();
        },
        nullptr);
  });
  EXPECT_TRUE(fabric.run().all_halted);
  const OpCounters total = fabric.total_counters();
  EXPECT_EQ(total.count(Opcode::FMOV), 4u * 10);
  EXPECT_EQ(total.count(Opcode::FMUL), 4u * 10);
  EXPECT_EQ(total.total_flops(), 4u * 10);
  EXPECT_EQ(fabric.pe_counters(0, 0).count(Opcode::FMUL), 10u);
}

TEST(Fabric, InvalidUsagesThrow) {
  Fabric fabric(1, 1);
  EXPECT_THROW(fabric.run(), Error); // run before load
  fabric.load([&](PeCoord) {
    return std::make_unique<LambdaProgram>([](PeContext& ctx) { ctx.halt(); },
                                           nullptr);
  });
  EXPECT_THROW(fabric.load([&](PeCoord) {
    return std::make_unique<LambdaProgram>(nullptr, nullptr);
  }),
               Error); // double load
  EXPECT_TRUE(fabric.run().all_halted);
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
  bool delivered = false;

  fabric.load([&](PeCoord coord) {
    return std::make_unique<LambdaProgram>(
        [coord](PeContext& ctx) {
          if (coord.x == 0) {
            ctx.configure_router(kData, to_east());
            const MemSpan src = ctx.memory().alloc_f32("src", 1);
            ctx.memory().store(src.offset_words, 3.5f);
            ctx.send(kData, dsd(src));
            ctx.halt();
          } else {
            ColorConfig wrong_wrong_right;
            wrong_wrong_right.positions = {
                SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
                SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
                SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)}};
            ctx.configure_router(kData, wrong_wrong_right);
            const MemSpan dst = ctx.memory().alloc_f32("dst", 1);
            ctx.recv(kData, dsd(dst), kDone);
            // Let the flit arrive (and stall) before the pokes advance.
            const MemSpan scratch = ctx.memory().alloc_f32("scratch", 512);
            ctx.dsd().fmovs_imm(dsd(scratch), 0.0f);
            ctx.activate(kPoke);
          }
        },
        [&](PeContext& ctx, Color color) {
          if (color == kPoke) {
            ctx.advance_local(color_bit(kData)); // position 1: still rejects
            ctx.activate(kPoke2);
            return;
          }
          if (color == kPoke2) {
            ctx.advance_local(color_bit(kData)); // position 2: accepts
            return;
          }
          EXPECT_EQ(color, kDone);
          EXPECT_FLOAT_EQ(ctx.memory().load(0), 3.5f);
          delivered = true;
          ctx.halt();
        });
  });
  EXPECT_TRUE(fabric.run().all_halted);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(fabric.stats().flits_stalled, 1u);
  EXPECT_EQ(trace.count(TraceEvent::FlitStalled), 1u);
}

TEST(Fabric, LargerMessagesTakeLongerOnTheLink) {
  auto timed_transfer = [](u32 words) {
    Fabric fabric(2, 1);
    constexpr Color kData = 0;
    constexpr Color kDone = 24;
    fabric.load([&](PeCoord coord) {
      return std::make_unique<LambdaProgram>(
          [coord, words](PeContext& ctx) {
            if (coord.x == 0) {
              ctx.configure_router(kData, to_east());
              const MemSpan src = ctx.memory().alloc_f32("src", words);
              ctx.send(kData, dsd(src));
              ctx.halt();
            } else {
              ctx.configure_router(kData, from_west());
              const MemSpan dst = ctx.memory().alloc_f32("dst", words);
              ctx.recv(kData, dsd(dst), kDone);
            }
          },
          [](PeContext& ctx, Color) { ctx.halt(); });
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

// One four-step halo exchange lowered through csl::HaloEmitter, then halt.
class BytecodeHaloProgram final : public PeProgram {
public:
  explicit BytecodeHaloProgram(u32 nz) : nz_(nz) {}

  MemSpan column{}, west{}, east{}, south{}, north{};

  void on_start(PeContext& ctx) override {
    csl::HaloExchange().configure(ctx);
    column = ctx.memory().alloc_f32("column", nz_);
    for (u32 z = 0; z < nz_; ++z)
      ctx.memory().store(column.offset_words + z,
                         cell_fingerprint(ctx.coord().x, ctx.coord().y, z));
    for (MemSpan* buf : {&west, &east, &south, &north}) {
      *buf = ctx.memory().alloc_f32("halo", nz_);
      for (u32 z = 0; z < nz_; ++z)
        ctx.memory().store(buf->offset_words + z, -1.0f);
    }

    bc::Builder b("halo-test");
    csl::HaloEmitter::Spec spec;
    spec.column = dsd(column);
    spec.west = dsd(west);
    spec.east = dsd(east);
    spec.south = dsd(south);
    spec.north = dsd(north);
    spec.cont_reg = 0;
    spec.pending_ureg = 0;
    csl::HaloEmitter halo(b, ctx.coord(), ctx.fabric_width(), ctx.fabric_height(),
                          std::move(spec));
    const auto entry = b.make_label();
    const auto done = b.make_label();
    b.bind(entry);
    b.setc(0, done);
    halo.emit_start();
    b.ret(); // the start sequence falls through to the caller's next op
    b.bind(done);
    b.halt();
    b.ret(); // HALT records the halt but does not stop interpretation
    halo.emit_handlers();
    b.set_entry(entry);
    program_ = std::make_shared<bc::Program>(b.finish());
    EXPECT_TRUE(bc::lint_program(*program_).empty());
    bc::run(ctx, vm_, *program_, program_->entry);
  }
  void on_task(PeContext& ctx, Color color) override {
    const u16 pc = vm_.handler[color];
    ASSERT_NE(pc, bc::kNoPc);
    bc::run(ctx, vm_, *program_, pc);
  }
  const bc::Program* bytecode() const override { return program_.get(); }
  bc::VmState* bytecode_state() override { return &vm_; }

private:
  u32 nz_;
  std::shared_ptr<bc::Program> program_;
  bc::VmState vm_;
};

TEST(BytecodeCollectives, HaloExchangeMatchesGolden) {
  constexpr u32 nz = 6;
  const struct {
    i64 width, height;
    const char* digest;
  } kShapes[] = {{1, 1, "c3c4bb03f04b5754"}, {2, 2, "751d21ad7d823678"}, {4, 3, "f94aa204c2ff81ea"},
                 {3, 4, "b2448a3ec7c3dd64"}, {5, 1, "def06d971059e14a"}, {1, 5, "5bd9a2c174afd80c"}};
  for (const auto& [width, height, digest] : kShapes) {
    Fabric bc_fabric(width, height);
    std::vector<BytecodeHaloProgram*> bc_pes;
    bc_fabric.load([&](PeCoord) {
      auto p = std::make_unique<BytecodeHaloProgram>(nz);
      bc_pes.push_back(p.get());
      return p;
    });
    const auto bc_run = bc_fabric.run();
    ASSERT_TRUE(bc_run.all_halted) << width << "x" << height;

    // Every word of every buffer — column untouched, halos delivered.
    golden::Digest d;
    d.add(bc_run.cycles).add(bc_fabric.stats());
    for (i64 y = 0; y < height; ++y) {
      for (i64 x = 0; x < width; ++x) {
        const std::size_t i = static_cast<std::size_t>(y * width + x);
        PeMemory& bm = bc_fabric.pe_memory(x, y);
        for (const MemSpan* span :
             {&bc_pes[i]->column, &bc_pes[i]->west, &bc_pes[i]->east,
              &bc_pes[i]->south, &bc_pes[i]->north}) {
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
class BytecodeReduceProgram final : public PeProgram {
public:
  explicit BytecodeReduceProgram(f32 value) : value_(value) {}

  MemSpan result{};

  void on_start(PeContext& ctx) override {
    csl::AllReduce reduce;
    reduce.configure(ctx); // allocates the value/in slots + routes
    result = ctx.memory().alloc_f32("result", 1);

    bc::Builder b("reduce-test");
    csl::ReduceEmitter::Spec spec;
    spec.slot_value = reduce.slot_value().offset_words;
    spec.slot_in = reduce.slot_in().offset_words;
    spec.cont_reg = 1;
    csl::ReduceEmitter emitter(b, ctx.coord(), ctx.fabric_width(),
                               ctx.fabric_height(), spec);
    const auto entry = b.make_label();
    const auto after = b.make_label();
    b.bind(entry);
    emitter.emit_handler_bindings();
    b.umovi(0, value_); // contribution in f0
    b.setc(1, after);
    b.jmp(emitter.start_label());
    b.bind(after); // fabric total back in f0
    b.rstore(0, result.offset_words);
    b.halt();
    b.ret(); // HALT records the halt but does not stop interpretation
    emitter.emit_blocks();
    b.set_entry(entry);
    program_ = std::make_shared<bc::Program>(b.finish());
    EXPECT_TRUE(bc::lint_program(*program_).empty());
    bc::run(ctx, vm_, *program_, program_->entry);
  }
  void on_task(PeContext& ctx, Color color) override {
    const u16 pc = vm_.handler[color];
    ASSERT_NE(pc, bc::kNoPc);
    bc::run(ctx, vm_, *program_, pc);
  }
  const bc::Program* bytecode() const override { return program_.get(); }
  bc::VmState* bytecode_state() override { return &vm_; }

private:
  f32 value_;
  std::shared_ptr<bc::Program> program_;
  bc::VmState vm_;
};

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
    std::vector<BytecodeReduceProgram*> bc_pes;
    bc_fabric.load([&](PeCoord c) {
      auto p = std::make_unique<BytecodeReduceProgram>(value_of(c));
      bc_pes.push_back(p.get());
      return p;
    });
    const auto bc_run = bc_fabric.run();
    ASSERT_TRUE(bc_run.all_halted) << width << "x" << height;

    golden::Digest d;
    d.add(bc_run.cycles).add(bc_fabric.stats());
    for (i64 y = 0; y < height; ++y) {
      for (i64 x = 0; x < width; ++x) {
        const std::size_t i = static_cast<std::size_t>(y * width + x);
        const f32 bc_total =
            bc_fabric.pe_memory(x, y).load(bc_pes[i]->result.offset_words);
        d.add(bc_total);
        EXPECT_NE(bc_total, 0.0f); // the reduction actually ran
      }
    }
    EXPECT_EQ(d.hex(), digest) << width << "x" << height;
  }
}

} // namespace
} // namespace fvdf::wse
