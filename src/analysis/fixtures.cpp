#include "analysis/fixtures.hpp"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "csl/allreduce.hpp"
#include "csl/any_source.hpp"
#include "csl/broadcast.hpp"
#include "csl/halo.hpp"
#include "csl/lowering.hpp"
#include "wse/bytecode.hpp"
#include "wse/bytecode_interp.hpp"
#include "wse/dsd.hpp"
#include "wse/router.hpp"

namespace fvdf::analysis::fixtures {

using wse::Color;
using wse::ColorConfig;
using wse::Dir;
using wse::DirMask;
using wse::Dsd;
using wse::MemSpan;
using wse::PeContext;
using wse::PeCoord;
using wse::PeProgram;
using wse::ProgramFactory;
using wse::ProgramManifest;
using wse::SwitchPosition;

namespace {

// ---------- known-good collective drivers ----------

/// One lowered collective program per PE shape — coordinate parity and
/// fabric edges, everything the csl emitters branch on — kept alive for
/// the factory's lifetime (see BcFixtureProgram). Fixture allocations
/// are the same on every PE, so the shape alone selects the program.
class ShapePrograms {
public:
  std::shared_ptr<const wse::bc::Program>
  get(const PeContext& ctx, const std::function<wse::bc::Program()>& lower) {
    const PeCoord c = ctx.coord();
    const u32 key = (c.x % 2 != 0 ? 1u : 0u) | (c.y % 2 != 0 ? 2u : 0u) |
                    (c.x == 0 ? 4u : 0u) |
                    (c.x == ctx.fabric_width() - 1 ? 8u : 0u) |
                    (c.y == 0 ? 16u : 0u) |
                    (c.y == ctx.fabric_height() - 1 ? 32u : 0u);
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = programs_[key];
    if (!slot) slot = std::make_shared<const wse::bc::Program>(lower());
    return slot;
  }

private:
  std::mutex mutex_;
  std::map<u32, std::shared_ptr<const wse::bc::Program>> programs_;
};

class EastwardProgram final : public PeProgram {
public:
  explicit EastwardProgram(u32 block) : block_(block) {}

  void on_start(PeContext& ctx) override {
    exchange_.configure(ctx);
    mine_ = ctx.memory().alloc_f32("mine", block_);
    from_west_ = ctx.memory().alloc_f32("from_west", block_);
    exchange_.start(ctx, wse::dsd(mine_), wse::dsd(from_west_),
                    [](PeContext& c) { c.halt(); });
  }

  void on_task(PeContext& ctx, Color color) override {
    exchange_.on_task(ctx, color);
  }

  ProgramManifest manifest(PeCoord coord, i64 width, i64 height) const override {
    return exchange_.manifest(coord, width, height);
  }

private:
  u32 block_;
  csl::EastwardExchange exchange_;
  MemSpan mine_{};
  MemSpan from_west_{};
};

class AnySourceProgram final : public PeProgram {
public:
  AnySourceProgram(PeCoord source, u32 block) : source_(source), block_(block) {}

  void on_start(PeContext& ctx) override {
    broadcast_.configure(ctx, source_);
    block_span_ = ctx.memory().alloc_f32("block", block_);
    broadcast_.start(ctx, wse::dsd(block_span_), [](PeContext& c) { c.halt(); });
  }

  void on_task(PeContext& ctx, Color color) override {
    broadcast_.on_task(ctx, color);
  }

  ProgramManifest manifest(PeCoord coord, i64 width, i64 height) const override {
    return broadcast_.manifest(coord, width, height);
  }

private:
  PeCoord source_;
  u32 block_;
  csl::AnySourceBroadcast broadcast_;
  MemSpan block_span_{};
};

// ---------- seeded defects ----------

constexpr Color kDefectColor = 5;

ColorConfig one_position(DirMask rx, DirMask tx) {
  ColorConfig config;
  config.positions = {SwitchPosition{rx, tx}};
  return config;
}

/// Eastward chain that deliberately skips the edge clip: the right-most
/// PE's transmit points off the fabric.
class EdgeRouteProgram final : public PeProgram {
public:
  void on_start(PeContext& ctx) override {
    ctx.configure_router(kDefectColor,
                         one_position(DirMask::of(Dir::Ramp, Dir::West),
                                      DirMask::of(Dir::East)));
  }
  void on_task(PeContext&, Color) override {}
  ProgramManifest manifest(PeCoord coord, i64, i64) const override {
    ProgramManifest m;
    if (coord.x == 0 && coord.y == 0)
      m.injects |= wse::color_set_bit(kDefectColor);
    return m;
  }
};

/// PE (0,0) forwards east, PE (1,0) forwards straight back: the channel
/// dependency graph has the cycle (1,0)@West -> (0,0)@East -> (1,0)@West.
class CreditCycleProgram final : public PeProgram {
public:
  void on_start(PeContext& ctx) override {
    if (ctx.coord().x % 2 == 0) {
      ctx.configure_router(kDefectColor,
                           one_position(DirMask::of(Dir::Ramp, Dir::East),
                                        DirMask::of(Dir::East)));
    } else {
      ctx.configure_router(kDefectColor, one_position(DirMask::of(Dir::West),
                                                      DirMask::of(Dir::West)));
    }
  }
  void on_task(PeContext&, Color) override {}
  ProgramManifest manifest(PeCoord coord, i64, i64) const override {
    ProgramManifest m;
    if (coord.x == 0 && coord.y == 0)
      m.injects |= wse::color_set_bit(kDefectColor);
    return m;
  }
};

/// The sender's wavelet lands on PE (1,0)'s ramp, but that program neither
/// arms a recv nor declares a task handler for the color.
class MissingHandlerProgram final : public PeProgram {
public:
  void on_start(PeContext& ctx) override {
    if (ctx.coord().x % 2 == 0) {
      ctx.configure_router(kDefectColor, one_position(DirMask::of(Dir::Ramp),
                                                      DirMask::of(Dir::East)));
    } else {
      ctx.configure_router(kDefectColor, one_position(DirMask::of(Dir::West),
                                                      DirMask::of(Dir::Ramp)));
    }
  }
  void on_task(PeContext&, Color) override {}
  ProgramManifest manifest(PeCoord coord, i64, i64) const override {
    ProgramManifest m;
    if (coord.x % 2 == 0) m.injects |= wse::color_set_bit(kDefectColor);
    return m;
  }
};

/// One allocation larger than the entire arena: alloc_f32 throws the
/// "PE memory overflow" Error the verifier maps to a memory-budget
/// diagnostic (with the full allocation map).
class ArenaOverflowProgram final : public PeProgram {
public:
  void on_start(PeContext& ctx) override {
    const u64 words = ctx.memory().capacity_bytes() / 4 + 1;
    ctx.memory().alloc_f32("overflow", static_cast<u32>(words));
  }
  void on_task(PeContext&, Color) override {}
};

} // namespace

BcFixtureProgram::BcFixtureProgram(
    std::shared_ptr<const wse::bc::Program> program, Setup setup)
    : program_(std::move(program)), setup_(std::move(setup)) {}

BcFixtureProgram::BcFixtureProgram(Lower lower) : lower_(std::move(lower)) {}

void BcFixtureProgram::on_start(PeContext& ctx) {
  if (setup_) setup_(ctx);
  if (!lower_) return;
  program_ = lower_(ctx);
  wse::bc::run(ctx, vm_, *program_, program_->entry);
}

void BcFixtureProgram::on_task(PeContext& ctx, Color color) {
  const u16 pc = vm_.handler[color];
  FVDF_CHECK_MSG(program_ != nullptr && pc != wse::bc::kNoPc,
                 "bytecode fixture: unexpected task color "
                     << static_cast<int>(color));
  wse::bc::run(ctx, vm_, *program_, pc);
}

ProgramManifest BcFixtureProgram::manifest(PeCoord, i64, i64) const {
  return wse::bc::derive_manifest(*program_);
}

ProgramFactory halo_program(u32 nz) {
  auto programs = std::make_shared<ShapePrograms>();
  return [nz, programs](PeCoord) {
    return std::make_unique<BcFixtureProgram>([nz, programs](PeContext& ctx) {
      csl::HaloExchange().configure(ctx);
      csl::HaloEmitter::Spec spec;
      spec.column = wse::dsd(ctx.memory().alloc_f32("column", nz));
      for (Dsd* halo : {&spec.west, &spec.east, &spec.south, &spec.north})
        *halo = wse::dsd(ctx.memory().alloc_f32("halo", nz));
      return programs->get(ctx, [&] {
        wse::bc::Builder b("halo-fixture");
        csl::HaloEmitter halo(b, ctx.coord(), ctx.fabric_width(),
                              ctx.fabric_height(), spec);
        const auto entry = b.make_label();
        const auto done = b.make_label();
        b.bind(entry);
        b.set_entry(entry);
        b.setc(spec.cont_reg, done);
        halo.emit_start();
        b.ret();
        b.bind(done);
        b.halt();
        b.ret();
        halo.emit_handlers();
        return b.finish();
      });
    });
  };
}

ProgramFactory allreduce_program() {
  auto programs = std::make_shared<ShapePrograms>();
  return [programs](PeCoord) {
    return std::make_unique<BcFixtureProgram>([programs](PeContext& ctx) {
      csl::AllReduce reduce;
      reduce.configure(ctx);
      return programs->get(ctx, [&] {
        wse::bc::Builder b("allreduce-fixture");
        csl::ReduceEmitter emitter(
            b, ctx.coord(), ctx.fabric_width(), ctx.fabric_height(),
            {{}, reduce.slot_value().offset_words,
             reduce.slot_in().offset_words, /*cont_reg=*/1});
        const auto entry = b.make_label();
        const auto done = b.make_label();
        b.bind(entry);
        b.set_entry(entry);
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
  return [block](PeCoord) { return std::make_unique<EastwardProgram>(block); };
}

ProgramFactory any_source_program(PeCoord source, u32 block) {
  return [source, block](PeCoord) {
    return std::make_unique<AnySourceProgram>(source, block);
  };
}

ProgramFactory edge_route_defect() {
  return [](PeCoord) { return std::make_unique<EdgeRouteProgram>(); };
}

ProgramFactory credit_cycle_defect() {
  return [](PeCoord) { return std::make_unique<CreditCycleProgram>(); };
}

ProgramFactory missing_handler_defect() {
  return [](PeCoord) { return std::make_unique<MissingHandlerProgram>(); };
}

ProgramFactory arena_overflow_defect() {
  return [](PeCoord) { return std::make_unique<ArenaOverflowProgram>(); };
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
    return std::make_unique<BcFixtureProgram>(program, [](PeContext& ctx) {
      ctx.memory().alloc_f32("buf", 16);
    });
  };
}

ProgramFactory bc_unset_continuation_defect() {
  wse::bc::Builder b("bc-unset-continuation");
  b.jind(0); // pc 0: no reachable SETC ever arms cont0
  auto program = std::make_shared<const wse::bc::Program>(b.finish());
  return [program](PeCoord) {
    return std::make_unique<BcFixtureProgram>(program, nullptr);
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
    return std::make_unique<BcFixtureProgram>(program, nullptr);
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
    return std::make_unique<BcFixtureProgram>(program, [](PeContext& ctx) {
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
      return std::make_unique<BcFixtureProgram>(
          tx_program, [](PeContext& ctx) {
            ctx.memory().alloc_f32("buf", 16);
            ctx.configure_router(kDefectColor,
                                 one_position(DirMask::of(Dir::Ramp),
                                              DirMask::of(Dir::East)));
          });
    }
    return std::make_unique<BcFixtureProgram>(
        rx_program, [](PeContext& ctx) {
          ctx.memory().alloc_f32("buf", 16);
          ctx.configure_router(kDefectColor,
                               one_position(DirMask::of(Dir::West),
                                            DirMask::of(Dir::Ramp)));
        });
  };
}

} // namespace fvdf::analysis::fixtures
