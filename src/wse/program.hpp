#pragma once
// The SPMD program interface for simulated PEs.
//
// A PE program is event-driven, like CSL: it never loops waiting for data.
// It receives control when (a) the fabric starts (`on_start`) or (b) a task
// color activates — either a local activation or the completion callback of
// an asynchronous send/receive. All side effects go through the PeContext.

#include <algorithm>
#include <array>
#include <functional>
#include <memory>

#include "wse/color.hpp"
#include "wse/dsd.hpp"
#include "wse/geometry.hpp"
#include "wse/memory.hpp"
#include "wse/router.hpp"

namespace fvdf::wse {

/// Facilities a PE program can use while handling a task. Implemented by
/// the Fabric; handlers must not retain the reference past their return.
class PeContext {
public:
  virtual ~PeContext() = default;

  virtual PeCoord coord() const = 0;
  virtual i64 fabric_width() const = 0;
  virtual i64 fabric_height() const = 0;

  virtual PeMemory& memory() = 0;
  virtual DsdEngine& dsd() = 0;

  /// Installs a route for `color` on this PE's router.
  virtual void configure_router(Color color, ColorConfig config) = 0;

  /// Asynchronously sends `src` out on `color` (the router's current switch
  /// position decides where it goes). If `advance_after` is non-zero, a
  /// control wavelet trails the data and advances those colors' switch
  /// positions in every router traversed (Listing 1's mechanism).
  /// `completion` (if valid) activates locally once the message has left
  /// the ramp.
  virtual void send(Color color, Dsd src, ColorMask advance_after = 0,
                    Color completion = kInvalidColor) = 0;

  /// Sends a data-less control wavelet on `color` advancing `advance`.
  virtual void send_control(Color color, ColorMask advance) = 0;

  /// Registers an asynchronous receive: the next `dst.length` words
  /// arriving on `color` land in `dst`, then `completion` activates.
  virtual void recv(Color color, Dsd dst, Color completion) = 0;

  /// Activates a task color on this PE (local activation).
  virtual void activate(Color color) = 0;

  /// Advances switch positions on this PE's own router (the
  /// `mov32(fabric_control, ...)` of Listing 1).
  virtual void advance_local(ColorMask mask) = 0;

  /// Marks this PE finished; the fabric run completes when all PEs halt.
  virtual void halt() = 0;

  /// Current task-local time in cycles.
  virtual f64 now() const = 0;

  // --- telemetry hooks (no-ops unless the fabric has a collector; see
  // telemetry/collector.hpp and docs/observability.md) ---

  /// Declares that this PE's program entered solver phase `phase` (a
  /// telemetry::Phase value) at the current cycle cursor. Level-triggered:
  /// the phase stays in effect until the next mark.
  virtual void mark_phase(u8 phase) { (void)phase; }

  /// Reports solver progress (e.g. the global residual after iteration
  /// `iteration`). The telemetry layer records it from PE (0,0) only.
  virtual void note_progress(u64 iteration, f64 value) {
    (void)iteration;
    (void)value;
  }
};

/// Static declaration of a PE program's communication behavior, consumed
/// by the fabric verifier and the channel-lookahead planner
/// (src/analysis/). A program's routing tables are fully installed by
/// on_start, but sends and receives happen over its whole lifetime — the
/// manifest is how a program tells the verifier what its event-driven
/// future will do, the way a function signature declares effects its body
/// performs later.
struct ProgramManifest {
  ColorSet injects = 0;   // colors this PE may send on (ramp injections)
  ColorSet handles = 0;   // colors consumed here: a recv or an on_task case
  ColorSet activates = 0; // colors this PE may activate (incl. completions)
  ColorMask advances = 0; // routable colors advanced (control or local)
  // Lower bound on the data words of any message this PE injects on a
  // routable color (meaningful only where the matching `injects` bit is
  // set). 0 — the default, and what send_control implies — claims nothing,
  // which is always safe; a nonzero bound lets the lookahead planner
  // charge the link-batch time of the smallest possible crossing message
  // to a shard boundary. Declare through declare_inject so the bound and
  // the inject bit stay consistent.
  std::array<u16, kNumRoutableColors> min_inject_words{};

  /// Declares an injection on `color` whose messages always carry at least
  /// `min_words` data words (use 0 for control wavelets or unknown sizes).
  /// Repeat declarations keep the weakest bound.
  ProgramManifest& declare_inject(Color color, u32 min_words) {
    check_routable(color);
    const u16 words =
        static_cast<u16>(std::min<u32>(min_words, u16(0xffff)));
    min_inject_words[color] = color_set_contains(injects, color)
                                  ? std::min(min_inject_words[color], words)
                                  : words;
    injects |= color_set_bit(color);
    return *this;
  }

  ProgramManifest& operator|=(const ProgramManifest& other) {
    // Word bounds merge before the inject sets: a color only one side
    // injects keeps that side's bound, a shared color keeps the weaker one.
    for (Color c = 0; c < kNumRoutableColors; ++c) {
      if (!color_set_contains(other.injects, c)) continue;
      min_inject_words[c] = color_set_contains(injects, c)
                                ? std::min(min_inject_words[c],
                                           other.min_inject_words[c])
                                : other.min_inject_words[c];
    }
    injects |= other.injects;
    handles |= other.handles;
    activates |= other.activates;
    advances |= other.advances;
    return *this;
  }
};

namespace bc {
struct Program;
struct VmState;
} // namespace bc

class PeProgram {
public:
  virtual ~PeProgram() = default;
  /// Runs once at fabric start (cycle 0).
  virtual void on_start(PeContext& ctx) = 0;
  /// Runs when `color` activates (local activation or completion callback).
  virtual void on_task(PeContext& ctx, Color color) = 0;

  /// Bytecode-compiled programs expose their flat instruction stream and
  /// interpreter state (see wse/bytecode.hpp) so the fabric can dispatch
  /// task activations straight into the interpreter instead of through
  /// on_task. nullptr (the default) selects the virtual on_task path,
  /// which the collectives without a lowering (the eastward exchange and
  /// the any-source broadcast) and hand-written test programs use.
  virtual const bc::Program* bytecode() const { return nullptr; }
  virtual bc::VmState* bytecode_state() { return nullptr; }

  /// Static manifest for the verifier, queried *after* on_start has run
  /// (so it may depend on configuration established there). Bytecode
  /// programs return wse::bc::derive_manifest of their stream. For
  /// callback programs the declaration is the only source: the default —
  /// an empty manifest — limits the verifier to what a recorded on_start
  /// reveals, so programs with receives or sends in later task handlers
  /// must override it.
  virtual ProgramManifest manifest(PeCoord coord, i64 fabric_width,
                                   i64 fabric_height) const {
    (void)coord;
    (void)fabric_width;
    (void)fabric_height;
    return {};
  }
};

using ProgramFactory = std::function<std::unique_ptr<PeProgram>(PeCoord)>;

} // namespace fvdf::wse
