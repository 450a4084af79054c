#pragma once
// The SPMD program interface for simulated PEs.
//
// A PE program has two parts, like a CSL program: a static layout and the
// tasks that run on it. The layout is plain data, a PeImage: the PE's
// route table, its allocation map with the initial arena bytes, and the
// bytecode stream (wse/bytecode.hpp). Fabric::load applies the image; the
// static analyses (src/analysis/) read it without running anything.
//
// The tasks are event-driven: a PE never loops waiting for data. It
// receives control when the fabric starts (the stream's entry block) or
// when a task color activates — either a local activation or the
// completion callback of an asynchronous send/receive. Every side effect
// of a task goes through the PeContext, and the fabric has one dispatch
// path, into the interpreter (wse/bytecode_interp.hpp).

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
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

  virtual PeMemory& memory() = 0;
  virtual DsdEngine& dsd() = 0;

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

/// Where a PE program is built: the PE and the fabric it loads into.
struct ImageSite {
  PeCoord coord{};
  i64 width = 1;
  i64 height = 1;
  PeMemoryParams mem{};
};

/// One PE's program as a plain value: the static layout plus the stream.
struct PeImage {
  std::vector<std::pair<Color, ColorConfig>> routes; // in install order
  std::vector<PeMemory::Allocation> allocations;      // the allocation map
  std::vector<u8> arena; // initial arena contents, bytes [0, used_bytes())
  /// PEs with the same lowering may share one stream; the shared_ptr keeps
  /// it alive for a caller that keys anything by its address.
  std::shared_ptr<const bc::Program> program;
  /// Whether the fabric interprets the stream's entry block at cycle 0.
  /// Off for streams only the static analyses read (seeded defects).
  bool run_entry = true;

  u64 used_bytes() const { return arena.size(); }
};

/// Writes a PeImage: routes and allocations go into the image, and uploads
/// are stores into a probe arena of the site's size, whose allocated bytes
/// become the image's initial contents. An allocation past the arena
/// throws the allocator's overflow error here, when the image is built.
class ImageBuilder {
public:
  explicit ImageBuilder(const ImageSite& site);

  PeCoord coord() const { return site_.coord; }
  i64 fabric_width() const { return site_.width; }
  i64 fabric_height() const { return site_.height; }

  /// Records a route for `color` (a later route for the same color
  /// replaces it when the image is applied, as Router::configure does).
  void configure_router(Color color, ColorConfig config) {
    routes_.emplace_back(color, std::move(config));
  }

  PeMemory& memory() { return memory_; }

  /// The finished image, with `program` as its stream.
  PeImage finish(std::shared_ptr<const bc::Program> program,
                 bool run_entry = true);

private:
  ImageSite site_;
  PeMemory memory_;
  std::vector<std::pair<Color, ColorConfig>> routes_;
};

/// The site the calling thread is instantiating a program factory for.
/// Throws outside instantiate(): see PeProgram(body).
const ImageSite& current_image_site();

/// A PE's program: one image. At fabric start (cycle 0) the stream's entry
/// block runs; every later task activation enters the interpreter at the
/// handler the stream bound for that color (SETH). The interpreter state a
/// PE keeps between tasks lives in the fabric's per-PE record.
class PeProgram {
public:
  explicit PeProgram(PeImage image);

  /// Builds the image at the current image site by running `body`, which
  /// writes routes, allocations and uploads through the ImageBuilder and
  /// returns the stream. For factories that know no more than the PE's
  /// coordinate (tests, fixtures and examples).
  template <typename Body,
            typename = std::enable_if_t<std::is_invocable_v<Body&, ImageBuilder&>>>
  explicit PeProgram(Body&& body)
      : PeProgram(build(current_image_site(), body, true)) {}

  /// A stream whose entry block never runs: `setup` writes routes and
  /// allocations, and only the static analyses read the stream. The
  /// seeded bytecode defects use this form.
  template <typename Setup>
  PeProgram(std::shared_ptr<const bc::Program> program, Setup&& setup)
      : PeProgram(build(
            current_image_site(),
            [&](ImageBuilder& image) {
              setup(image);
              return std::move(program);
            },
            false)) {}

  /// Virtual only so that the solver's constructor-only subclasses
  /// (core/bytecode_program.hpp) can be deleted through a PeProgram.
  virtual ~PeProgram() = default;
  PeProgram(const PeProgram&) = delete;
  PeProgram& operator=(const PeProgram&) = delete;

  const PeImage& image() const { return image_; }
  const bc::Program* bytecode() const { return image_.program.get(); }
  const std::shared_ptr<const bc::Program>& shared_bytecode() const {
    return image_.program;
  }

private:
  template <typename Body>
  static PeImage build(const ImageSite& site, Body&& body, bool run_entry) {
    ImageBuilder image(site);
    std::shared_ptr<const bc::Program> program = body(image);
    return image.finish(std::move(program), run_entry);
  }

  PeImage image_;
};

using ProgramFactory = std::function<std::unique_ptr<PeProgram>(PeCoord)>;

/// Calls `factory` for `site.coord` with `site` as the current image site,
/// so programs built from a start body alone see the PE, the fabric and
/// the arena size the caller loads them into. Fabric::load, the verifier
/// and the lookahead planner instantiate every PE through this.
std::unique_ptr<PeProgram> instantiate(const ProgramFactory& factory,
                                       const ImageSite& site);

} // namespace fvdf::wse
