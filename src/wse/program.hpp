#pragma once
// The SPMD program interface for simulated PEs.
//
// A PE program is event-driven, like CSL: it never loops waiting for data.
// It receives control when (a) the fabric starts (`on_start`) or (b) a task
// color activates — either a local activation or the completion callback of
// an asynchronous send/receive. All side effects go through the PeContext.
// Every program is a bytecode stream (wse/bytecode.hpp): the fabric has
// one dispatch path, into the interpreter (wse/bytecode_interp.hpp).

#include <functional>
#include <memory>

#include "wse/bytecode.hpp"
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

/// A PE's program: one flat instruction stream (wse/bytecode.hpp) and the
/// interpreter state it keeps between tasks. At fabric start (cycle 0) the
/// start step installs routes, allocates and uploads through the context
/// and hands back this PE's stream; the stream's entry block then runs.
/// Every later task activation — a local activation or the completion of
/// a send/receive — enters the interpreter at the handler the stream bound
/// for that color (SETH). The stream is also the only source of the PE's
/// communication facts for the static analyses (src/analysis/): what the
/// recorded start step did plus what the instructions can do.
class PeProgram {
public:
  using Start =
      std::function<std::shared_ptr<const bc::Program>(PeContext&)>;
  using Setup = std::function<void(PeContext&)>;

  explicit PeProgram(Start start);
  /// A loaded stream whose entry block never runs: `setup` (may be null)
  /// installs routes and allocations, and only the static analyses read
  /// the stream. The seeded bytecode defects use this form.
  PeProgram(std::shared_ptr<const bc::Program> program, Setup setup);
  virtual ~PeProgram() = default;
  PeProgram(const PeProgram&) = delete;
  PeProgram& operator=(const PeProgram&) = delete;

  /// Runs once at fabric start: the start step, then the entry block.
  void on_start(PeContext& ctx);

  /// This PE's stream (null before on_start). PEs with the same lowering
  /// may share one stream; the shared_ptr keeps it alive for a caller
  /// that keys anything by its address.
  const bc::Program* bytecode() const { return program_.get(); }
  const std::shared_ptr<const bc::Program>& shared_bytecode() const {
    return program_;
  }
  bc::VmState& vm() { return vm_; }

protected:
  PeProgram() = default;
  /// The start step. Subclasses whose start step is more than a function
  /// (the solver programs, which lower at construction) override it.
  virtual std::shared_ptr<const bc::Program> start(PeContext& ctx);

private:
  Start start_;
  bool run_entry_ = true;
  std::shared_ptr<const bc::Program> program_;
  bc::VmState vm_;
};

using ProgramFactory = std::function<std::unique_ptr<PeProgram>(PeCoord)>;

} // namespace fvdf::wse
