#pragma once
// Bytecode lowerings of the csl collectives (docs/simulator.md, "Bytecode
// ISA"): the Table-I halo exchange and all-reduce, the Fig.-4 eastward
// exchange and the any-source broadcast. Bytecode is the only form a PE
// program takes, so these emitters are the collectives' only task code.
//
// Each emitter writes one collective's event-driven task chain into a
// wse::bc::Builder. Per-coordinate parity and edge cases are resolved at
// lowering time into static code; the only dynamic state is a handful of
// VM registers. The order of the charged DsdEngine calls, the telemetry
// marks and the fabric sends/recvs is part of the contract: the golden
// digests in the tests (cycles, statistics and buffer words per fabric
// shape, and whole solves) pin it.
//
// Register conventions (shared with core/bytecode_program.cpp):
//   f0      all-reduce contribution in / fabric total out
//   f1      all-reduce row sum (persists across the column phase)
//   f2, f3  all-reduce handler scratch
//   u-regs and continuation registers are caller-assigned.

#include <functional>

#include "csl/allreduce.hpp"
#include "csl/any_source.hpp"
#include "csl/broadcast.hpp"
#include "csl/halo.hpp"
#include "wse/bytecode.hpp"

namespace fvdf::csl {

/// Emits the per-face work (flux computation + phase marks) run when a
/// halo face lands; called at lowering time, once per receive site.
using FaceEmit = std::function<void(wse::bc::Builder&, wse::Dir)>;

/// Lowers one four-step halo exchange (one exchange call site).
/// A program that runs several distinct exchanges (e.g. the OnTheFly
/// mobility pass plus the per-iteration column exchange) instantiates one
/// emitter per call site — each gets its own step/done blocks.
class HaloEmitter {
public:
  struct Spec {
    HaloExchange::Colors colors{};
    wse::Dsd column{};
    wse::Dsd west{}, east{}, south{}, north{}; // halo receive buffers
    FaceEmit face;      // null for exchanges without per-face work
    u8 cont_reg = 0;    // continuation register JIND'ed after step 4
    u8 pending_ureg = 0;// u-register for the 2-action per-step join
  };

  HaloEmitter(wse::bc::Builder& b, wse::PeCoord coord, i64 width, i64 height,
              Spec spec);

  /// Emits the inline start sequence: the Halo phase mark, the step-1
  /// handler bindings and the step-1 actions. Execution continues with
  /// the caller's next instruction (the overlapped z-flux).
  void emit_start();

  /// Emits the out-of-line done-handler blocks (face work, the join,
  /// steps 2-4, the final JIND through cont_reg). Call once, anywhere the
  /// builder is between blocks.
  void emit_handlers();

private:
  void emit_launch(int step);
  void emit_x_action(int step);
  void emit_y_action(int step);

  wse::bc::Builder& b_;
  wse::PeCoord coord_;
  i64 width_, height_;
  Spec spec_;
  u8 column_, west_, east_, south_, north_; // interned DSD indices
  std::array<wse::bc::Builder::Label, 4> done_x_{}, done_y_{}, next_{};
  std::array<bool, 4> x_recv_{}, y_recv_{};
};

/// Lowers the whole-fabric AllReduce. One emitter serves every
/// reduction site in the program: jump to start_label() with the
/// PE's contribution in f0 and a continuation pc in cont_reg; the finish
/// block loads the fabric total into f0 and JINDs through cont_reg.
class ReduceEmitter {
public:
  struct Spec {
    AllReduce::Colors colors{};
    u32 slot_value = 0; // word offset of the component's value slot
    u32 slot_in = 0;    // word offset of the incoming-partial slot
    u8 cont_reg = 1;
  };

  ReduceEmitter(wse::bc::Builder& b, wse::PeCoord coord, i64 width, i64 height,
                Spec spec);

  /// Entry of the lowered start block (contribution in f0).
  wse::bc::Builder::Label start_label() const { return start_; }

  /// Emits the SETH bindings for the handlers this coordinate can
  /// actually receive. Call inline in the program's entry block (the
  /// bindings are static for the program's lifetime).
  void emit_handler_bindings();

  /// Emits the start/handler/finish blocks out-of-line. Call once.
  void emit_blocks();

private:
  void emit_row_phase_done_tail(); // row sum in f1 (right column only)
  void emit_column_phase_done(u8 total_reg); // bottom-right only

  wse::bc::Builder& b_;
  wse::PeCoord coord_;
  i64 width_, height_;
  Spec spec_;
  u8 value_dsd_, in_dsd_; // interned 1-word DSD indices
  wse::bc::Builder::Label start_, finish_;
  wse::bc::Builder::Label h_row_, h_col_, h_bcol_, h_brow_;
};

/// Lowers one two-step eastward exchange (Fig. 4 / Listing 1). Even-x
/// PEs send in step 1 and receive in step 2, odd-x PEs the other way
/// round; each send trails the control wavelet that flips the sender's
/// and the receiver's switch positions. The x = 0 PE has no western
/// neighbor: in step 2 it advances its own router and activates the done
/// color itself. The done color's handler is rebound per step.
class EastwardEmitter {
public:
  struct Spec {
    EastwardExchange::Colors colors{};
    wse::Dsd mine{};      // sent east
    wse::Dsd from_west{}; // the western neighbor's block lands here
    u8 cont_reg = 0;      // continuation register JIND'ed after step 2
  };

  EastwardEmitter(wse::bc::Builder& b, wse::PeCoord coord, Spec spec);

  /// Emits the inline start sequence: the step-2 handler binding and the
  /// step-1 action.
  void emit_start();

  /// Emits the out-of-line step-2 block and the finish (JIND through
  /// cont_reg). Call once.
  void emit_handlers();

private:
  void emit_send();
  void emit_recv();

  wse::bc::Builder& b_;
  bool even_x_;
  bool west_edge_;
  Spec spec_;
  u8 mine_, from_west_; // interned DSD indices
  wse::bc::Builder::Label step2_, finish_;
};

/// Lowers one round of the any-source broadcast. The source publishes
/// its block along its row and its column and activates the done color
/// itself; every other PE receives the block on its phase's color, and a
/// source-row relay republishes it into its column before finishing.
class AnySourceEmitter {
public:
  struct Spec {
    AnySourceBroadcast::Colors colors{};
    wse::PeCoord source{}; // the broadcast root (as passed to configure)
    wse::Dsd block{};      // payload on the source, destination elsewhere
    u8 cont_reg = 0;       // continuation register JIND'ed when done
  };

  AnySourceEmitter(wse::bc::Builder& b, wse::PeCoord coord, i64 width,
                   i64 height, Spec spec);

  /// Emits the inline start sequence: the done-handler binding, then the
  /// source's sends or everyone else's receive.
  void emit_start();

  /// Emits the out-of-line done block (the relay's column send, then the
  /// JIND through cont_reg). Call once.
  void emit_handlers();

private:
  wse::bc::Builder& b_;
  bool is_source_;
  bool on_source_row_;
  i64 width_, height_;
  Spec spec_;
  u8 block_; // interned DSD index
  wse::bc::Builder::Label done_;
};

} // namespace fvdf::csl
