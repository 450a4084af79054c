#pragma once
// Per-PE router with CSL-style per-color switch positions.
//
// Each routable color has a small list of switch positions, each an
// {rx, tx} direction set (Listing 1 in the paper). Control wavelets advance
// the current position of a named set of colors; with ring_mode the
// position wraps back to 0 after the last one — exactly the mechanism the
// paper's localized broadcast (Fig. 4) alternates Sending/Receiving roles
// with.

#include <array>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "wse/color.hpp"
#include "wse/geometry.hpp"

namespace fvdf::wse {

struct SwitchPosition {
  DirMask rx; // accepted input links
  DirMask tx; // output links (fanout > 1 = broadcast; empty = null route:
              // accepted wavelets are deliberately discarded — the
              // edge-clipped representation of a transmit step whose
              // partner PE does not exist)
};

struct ColorConfig {
  std::vector<SwitchPosition> positions;
  bool ring_mode = false;
};

/// The router state is flat so that a fabric can keep it inside each PE's
/// hot record: per-color masks and indices in fixed arrays, and every
/// configured color's switch positions in one table.
class Router {
public:
  /// A color may hold at most this many switch positions (the hardware
  /// has four).
  static constexpr std::size_t kMaxPositions = 256;

  /// Attaches the owning PE's coordinate so routing errors are actionable
  /// without a trace dump (the Fabric sets this at construction; a bare
  /// Router in a unit test reports "PE (?)").
  void set_coord(PeCoord coord) {
    x_ = static_cast<i32>(coord.x);
    y_ = static_cast<i32>(coord.y);
  }

  /// Installs the route for `color`; resets the current position to 0.
  void configure(Color color, const ColorConfig& config);

  bool is_configured(Color color) const {
    check_routable(color);
    return (configured_ & (ColorMask{1} << color)) != 0;
  }

  /// Installed switch positions of `color` and its ring mode, for the
  /// static verifier and diagnostics. Throw if the color is unconfigured.
  std::span<const SwitchPosition> positions(Color color) const;
  bool ring_mode(Color color) const;

  /// Output links for a wavelet of `color` arriving from `from`. Throws if
  /// the color is unconfigured (a program bug, never silent). Inline fast
  /// path over the current-position masks: this and accepts() run once
  /// per flit hop, the hottest edge of the whole simulator.
  DirMask route(Color color, Dir from) const {
    if (!accepts(color, from)) misroute_fail(color, from);
    return tx_[color];
  }

  /// True when the current switch position accepts wavelets from `from`.
  /// When false, hardware exerts backpressure: the wavelet stalls on its
  /// link until a control advances the switch (the fabric models this by
  /// parking and re-dispatching the flit).
  bool accepts(Color color, Dir from) const {
    if (!is_configured(color)) unconfigured_fail(color, from);
    return rx_[color].contains(from);
  }

  /// True when *any* installed switch position of `color` can transmit on
  /// `dir` — a reachability over-approximation for static analyses (the
  /// channel-lookahead planner asks which colors can cross a shard
  /// boundary at all). False for unconfigured colors.
  bool may_transmit(Color color, Dir dir) const;

  /// Advances the switch position of every color in `mask` (control
  /// wavelet semantics / fabric_control writes). Without ring_mode the
  /// position saturates at the last one; unconfigured colors are skipped.
  void advance(ColorMask mask);

  /// Current switch position index of `color` (for tests/diagnostics).
  u32 position(Color color) const;

private:
  std::string where() const; // " at PE (x, y)" context for error messages
  [[noreturn]] void unconfigured_fail(Color color, Dir from) const;
  [[noreturn]] void misroute_fail(Color color, Dir from) const;

  // Read per flit hop: which colors are configured and the rx/tx masks of
  // each color's current position.
  ColorMask configured_ = 0;
  ColorMask ring_ = 0;
  std::array<DirMask, kNumRoutableColors> rx_{};
  std::array<DirMask, kNumRoutableColors> tx_{};
  // Read per advance: the current position, the last one, and where the
  // color's positions start in table_.
  std::array<u8, kNumRoutableColors> current_{};
  std::array<u8, kNumRoutableColors> last_{};
  std::array<u16, kNumRoutableColors> first_{};
  i32 x_ = -1; // owning PE, for messages; -1 = unknown
  i32 y_ = -1;
  std::vector<SwitchPosition> table_;
};

} // namespace fvdf::wse
