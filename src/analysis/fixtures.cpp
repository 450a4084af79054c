#include "analysis/fixtures.hpp"

#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "csl/allreduce.hpp"
#include "csl/any_source.hpp"
#include "csl/broadcast.hpp"
#include "csl/halo.hpp"
#include "csl/lowering.hpp"
#include "wse/bytecode.hpp"
#include "wse/dsd.hpp"
#include "wse/router.hpp"

namespace fvdf::analysis::fixtures {

using wse::Color;
using wse::ColorConfig;
using wse::Dir;
using wse::DirMask;
using wse::Dsd;
using wse::ImageBuilder;
using wse::PeCoord;
using wse::PeProgram;
using wse::ProgramFactory;
using wse::SwitchPosition;

namespace {

// ---------- known-good collective drivers ----------

/// One lowered collective program per lowering key, kept alive for the
/// factory's lifetime. Fixture allocations are the same on every PE, so
/// the key — whatever the emitter branches on — selects the program.
class ProgramsByKey {
public:
  std::shared_ptr<const wse::bc::Program>
  get(u32 key, const std::function<wse::bc::Program()>& lower) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = programs_[key];
    if (!slot) slot = std::make_shared<const wse::bc::Program>(lower());
    return slot;
  }

private:
  std::mutex mutex_;
  std::map<u32, std::shared_ptr<const wse::bc::Program>> programs_;
};

/// Coordinate parity and fabric edges: everything the halo and
/// all-reduce emitters branch on.
u32 shape_key(const ImageBuilder& ctx) {
  const PeCoord c = ctx.coord();
  return (c.x % 2 != 0 ? 1u : 0u) | (c.y % 2 != 0 ? 2u : 0u) |
         (c.x == 0 ? 4u : 0u) | (c.x == ctx.fabric_width() - 1 ? 8u : 0u) |
         (c.y == 0 ? 16u : 0u) | (c.y == ctx.fabric_height() - 1 ? 32u : 0u);
}

/// One round of a collective, then halt: the entry block arms the
/// continuation and runs the start sequence; the handler blocks follow.
template <typename Emitter>
wse::bc::Program lower_one_round(wse::bc::Builder& b, Emitter& emitter,
                                 u8 cont_reg) {
  const auto done = b.make_label();
  b.setc(cont_reg, done);
  emitter.emit_start();
  b.ret();
  b.bind(done);
  b.halt();
  b.ret();
  emitter.emit_handlers();
  return b.finish();
}

// ---------- seeded defects ----------

constexpr Color kDefectColor = 5;
constexpr Color kNeverActivated = 24; // local task color nothing activates

ColorConfig one_position(DirMask rx, DirMask tx) {
  ColorConfig config;
  config.positions = {SwitchPosition{rx, tx}};
  return config;
}

/// A stream that binds a handler injecting on kDefectColor (when `injects`)
/// and returns; the handler never runs.
std::shared_ptr<const wse::bc::Program> routing_defect_stream(bool injects) {
  wse::bc::Builder b(injects ? "routing-defect-injector" : "routing-defect");
  if (injects) {
    const auto handler = b.make_label();
    b.seth(kNeverActivated, handler);
    b.ret();
    b.bind(handler);
    b.send_control(kDefectColor, 0);
  }
  b.ret();
  return std::make_shared<const wse::bc::Program>(b.finish());
}

/// A routing defect: every PE installs `route(coord)`; PEs where
/// `injects(coord)` holds load the injecting stream.
ProgramFactory routing_defect(std::function<ColorConfig(PeCoord)> route,
                              std::function<bool(PeCoord)> injects) {
  auto injector = routing_defect_stream(true);
  auto quiet = routing_defect_stream(false);
  return [=](PeCoord coord) {
    return std::make_unique<PeProgram>(
        [=](ImageBuilder& ctx) {
          ctx.configure_router(kDefectColor, route(coord));
          return injects(coord) ? injector : quiet;
        });
  };
}

} // namespace

ProgramFactory halo_program(u32 nz) {
  auto programs = std::make_shared<ProgramsByKey>();
  return [nz, programs](PeCoord) {
    return std::make_unique<PeProgram>([nz, programs](ImageBuilder& ctx) {
      csl::HaloExchange().configure(ctx);
      csl::HaloEmitter::Spec spec;
      spec.column = wse::dsd(ctx.memory().alloc_f32("column", nz));
      for (Dsd* halo : {&spec.west, &spec.east, &spec.south, &spec.north})
        *halo = wse::dsd(ctx.memory().alloc_f32("halo", nz));
      return programs->get(shape_key(ctx), [&] {
        wse::bc::Builder b("halo-fixture");
        csl::HaloEmitter halo(b, ctx.coord(), ctx.fabric_width(),
                              ctx.fabric_height(), spec);
        return lower_one_round(b, halo, spec.cont_reg);
      });
    });
  };
}

ProgramFactory allreduce_program() {
  auto programs = std::make_shared<ProgramsByKey>();
  return [programs](PeCoord) {
    return std::make_unique<PeProgram>([programs](ImageBuilder& ctx) {
      csl::AllReduce reduce;
      reduce.configure(ctx);
      return programs->get(shape_key(ctx), [&] {
        wse::bc::Builder b("allreduce-fixture");
        csl::ReduceEmitter emitter(
            b, ctx.coord(), ctx.fabric_width(), ctx.fabric_height(),
            {{}, reduce.slot_value().offset_words,
             reduce.slot_in().offset_words, /*cont_reg=*/1});
        const auto done = b.make_label();
        emitter.emit_handler_bindings();
        b.umovi(0, 1.0f); // this PE's contribution
        b.setc(1, done);
        b.jmp(emitter.start_label());
        b.bind(done);
        b.halt();
        b.ret();
        emitter.emit_blocks();
        return b.finish();
      });
    });
  };
}

ProgramFactory eastward_program(u32 block) {
  auto programs = std::make_shared<ProgramsByKey>();
  return [block, programs](PeCoord) {
    return std::make_unique<PeProgram>([block, programs](ImageBuilder& ctx) {
      csl::EastwardExchange().configure(ctx);
      csl::EastwardEmitter::Spec spec;
      spec.mine = wse::dsd(ctx.memory().alloc_f32("mine", block));
      spec.from_west = wse::dsd(ctx.memory().alloc_f32("from_west", block));
      // The emitter branches on x parity and the west edge only.
      const u32 key = (ctx.coord().x % 2 != 0 ? 1u : 0u) |
                      (ctx.coord().x == 0 ? 2u : 0u);
      return programs->get(key, [&] {
        wse::bc::Builder b("eastward-fixture");
        csl::EastwardEmitter exchange(b, ctx.coord(), spec);
        return lower_one_round(b, exchange, spec.cont_reg);
      });
    });
  };
}

ProgramFactory any_source_program(PeCoord source, u32 block) {
  auto programs = std::make_shared<ProgramsByKey>();
  return [source, block, programs](PeCoord) {
    return std::make_unique<PeProgram>([=](ImageBuilder& ctx) {
      csl::AnySourceBroadcast().configure(ctx, source);
      csl::AnySourceEmitter::Spec spec;
      spec.source = source;
      spec.block = wse::dsd(ctx.memory().alloc_f32("block", block));
      // The emitter branches on the PE's role and the fabric's extent.
      const PeCoord c = ctx.coord();
      const u32 key = (c == source ? 1u : 0u) | (c.y == source.y ? 2u : 0u) |
                      (ctx.fabric_width() > 1 ? 4u : 0u) |
                      (ctx.fabric_height() > 1 ? 8u : 0u);
      return programs->get(key, [&] {
        wse::bc::Builder b("any-source-fixture");
        csl::AnySourceEmitter broadcast(b, c, ctx.fabric_width(),
                                        ctx.fabric_height(), spec);
        return lower_one_round(b, broadcast, spec.cont_reg);
      });
    });
  };
}

ProgramFactory edge_route_defect() {
  // Eastward chain that deliberately skips the edge clip: the right-most
  // PE's transmit points off the fabric.
  return routing_defect(
      [](PeCoord) {
        return one_position(DirMask::of(Dir::Ramp, Dir::West),
                            DirMask::of(Dir::East));
      },
      [](PeCoord coord) { return coord.x == 0 && coord.y == 0; });
}

ProgramFactory credit_cycle_defect() {
  // PE (0,0) forwards east, PE (1,0) forwards straight back: the channel
  // dependency graph has the cycle (1,0)@West -> (0,0)@East -> (1,0)@West.
  return routing_defect(
      [](PeCoord coord) {
        return coord.x % 2 == 0
                   ? one_position(DirMask::of(Dir::Ramp, Dir::East),
                                  DirMask::of(Dir::East))
                   : one_position(DirMask::of(Dir::West),
                                  DirMask::of(Dir::West));
      },
      [](PeCoord coord) { return coord.x == 0 && coord.y == 0; });
}

ProgramFactory missing_handler_defect() {
  // The sender's wavelet lands on PE (1,0)'s ramp, but that program
  // neither arms a recv nor binds a task handler for the color.
  return routing_defect(
      [](PeCoord coord) {
        return coord.x % 2 == 0 ? one_position(DirMask::of(Dir::Ramp),
                                               DirMask::of(Dir::East))
                                : one_position(DirMask::of(Dir::West),
                                               DirMask::of(Dir::Ramp));
      },
      [](PeCoord coord) { return coord.x % 2 == 0; });
}

ProgramFactory arena_overflow_defect() {
  // One allocation larger than the entire arena: alloc_f32 throws the
  // "PE memory overflow" Error the verifier maps to a memory-budget
  // diagnostic (with the full allocation map).
  return [](PeCoord) {
    return std::make_unique<PeProgram>(
        [](ImageBuilder& ctx) -> std::shared_ptr<const wse::bc::Program> {
          const u64 words = ctx.memory().capacity_bytes() / 4 + 1;
          ctx.memory().alloc_f32("overflow", static_cast<u32>(words));
          return nullptr; // unreachable: the allocation throws
        });
  };
}

// ---------- seeded bytecode defects ----------

ProgramFactory bc_oob_span_defect() {
  wse::bc::Builder b("bc-oob-span");
  const u8 bad = b.dsd(Dsd{/*offset=*/100000, /*length=*/4, /*stride=*/1});
  b.vmovi(bad, 0.0f); // pc 0: span [100000..100003] vs a 16-word arena
  b.ret();
  auto program =
      std::make_shared<const wse::bc::Program>(b.finish());
  return [program](PeCoord) {
    return std::make_unique<PeProgram>(program, [](ImageBuilder& ctx) {
      ctx.memory().alloc_f32("buf", 16);
    });
  };
}

ProgramFactory bc_unset_continuation_defect() {
  wse::bc::Builder b("bc-unset-continuation");
  b.jind(0); // pc 0: no reachable SETC ever arms cont0
  auto program = std::make_shared<const wse::bc::Program>(b.finish());
  return [program](PeCoord) {
    return std::make_unique<PeProgram>(program, [](ImageBuilder&) {});
  };
}

ProgramFactory bc_unbounded_loop_defect() {
  wse::bc::Builder b("bc-unbounded-loop");
  b.setu(0, 0); // pc 0: first DECJNZ decrement wraps u0 to 0xffffffff
  const auto loop = b.make_label();
  b.bind(loop);
  b.sadd(0, 0, 0); // pc 1: a charged op, so the loop body has a cost
  b.decjnz(0, loop); // pc 2
  b.ret();
  auto program = std::make_shared<const wse::bc::Program>(b.finish());
  return [program](PeCoord) {
    return std::make_unique<PeProgram>(program, [](ImageBuilder&) {});
  };
}

ProgramFactory bc_send_overlap_defect() {
  wse::bc::Builder b("bc-send-overlap");
  const u8 buf = b.dsd(Dsd{0, 4, 1});
  const auto handler = b.make_label();
  b.seth(kDefectColor, handler); // pc 0
  b.send(kDefectColor, buf);     // pc 1: words [0..3] now in flight
  b.umovi(0, 1.0f);              // pc 2
  b.stos(0, 2);                  // pc 3: overwrites word 2 of the payload
  b.ret();
  b.bind(handler);
  b.ret();
  auto program = std::make_shared<const wse::bc::Program>(b.finish());
  return [program](PeCoord) {
    return std::make_unique<PeProgram>(program, [](ImageBuilder& ctx) {
      ctx.memory().alloc_f32("buf", 16);
      // Self-delivery loop: inject from the ramp, deliver to the ramp.
      ctx.configure_router(kDefectColor,
                           one_position(DirMask::of(Dir::Ramp),
                                        DirMask::of(Dir::Ramp)));
    });
  };
}

ProgramFactory bc_unbalanced_send_defect() {
  wse::bc::Builder tx("bc-unbalanced-send-tx");
  tx.send(kDefectColor, tx.dsd(Dsd{0, 8, 1})); // 8-word messages east
  tx.ret();
  wse::bc::Builder rx("bc-unbalanced-send-rx");
  rx.recv(kDefectColor, rx.dsd(Dsd{0, 6, 1}), wse::kInvalidColor); // 6 words
  rx.ret();
  auto tx_program = std::make_shared<const wse::bc::Program>(tx.finish());
  auto rx_program = std::make_shared<const wse::bc::Program>(rx.finish());
  return [tx_program, rx_program](PeCoord coord) {
    if (coord.x == 0) {
      return std::make_unique<PeProgram>(
          tx_program, [](ImageBuilder& ctx) {
            ctx.memory().alloc_f32("buf", 16);
            ctx.configure_router(kDefectColor,
                                 one_position(DirMask::of(Dir::Ramp),
                                              DirMask::of(Dir::East)));
          });
    }
    return std::make_unique<PeProgram>(
        rx_program, [](ImageBuilder& ctx) {
          ctx.memory().alloc_f32("buf", 16);
          ctx.configure_router(kDefectColor,
                               one_position(DirMask::of(Dir::West),
                                            DirMask::of(Dir::Ramp)));
        });
  };
}

} // namespace fvdf::analysis::fixtures
