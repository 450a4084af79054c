#include "wse/router.hpp"

#include <bit>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace fvdf::wse {

std::string Router::where() const {
  std::ostringstream os;
  if (has_coord_) {
    os << " at PE (" << coord_.x << ", " << coord_.y << ")";
  } else {
    os << " at PE (?)";
  }
  return os.str();
}

void Router::configure(Color color, ColorConfig config) {
  check_routable(color);
  FVDF_CHECK_MSG(!config.positions.empty(),
                 "router config for color " << static_cast<int>(color)
                                            << " needs >= 1 switch position" << where());
  // rx must be non-empty (a position nothing can enter is dead); tx may be
  // empty — a null route that deliberately discards, the edge-clipped form
  // of a transmit position whose partner PE does not exist.
  for (const auto& pos : config.positions)
    FVDF_CHECK_MSG(!pos.rx.empty(), "switch position of color "
                                        << static_cast<int>(color)
                                        << " must have a non-empty rx set" << where());
  auto& state = colors_[color];
  state.config = std::move(config);
  state.current = 0;
  state.configured = true;
  refresh_current(color);
}

void Router::refresh_current(Color color) {
  const State& state = colors_[color];
  const SwitchPosition& pos = state.config.positions[state.current];
  cur_rx_[color] = pos.rx;
  cur_tx_[color] = pos.tx;
}

void Router::unconfigured_fail(Color color, Dir from) const {
  FVDF_CHECK_MSG(false, "wavelet on unconfigured color "
                            << static_cast<int>(color) << " arriving from "
                            << to_string(from) << where());
  std::abort(); // unreachable: the check above always throws
}

void Router::misroute_fail(Color color, Dir from) const {
  FVDF_CHECK_MSG(false, "misrouted wavelet: color "
                            << static_cast<int>(color) << " arrived from "
                            << to_string(from) << " at switch position "
                            << colors_[color].current << where());
  std::abort(); // unreachable: the check above always throws
}

bool Router::is_configured(Color color) const {
  check_routable(color);
  return colors_[color].configured;
}

const ColorConfig& Router::config(Color color) const {
  check_routable(color);
  FVDF_CHECK_MSG(colors_[color].configured,
                 "no route installed for color " << static_cast<int>(color) << where());
  return colors_[color].config;
}

bool Router::may_transmit(Color color, Dir dir) const {
  check_routable(color);
  const auto& state = colors_[color];
  if (!state.configured) return false;
  for (const SwitchPosition& pos : state.config.positions)
    if (pos.tx.contains(dir)) return true;
  return false;
}

void Router::advance(ColorMask mask) {
  for (ColorMask bits = mask & kRoutableColorMask; bits != 0; bits &= bits - 1) {
    const Color color = static_cast<Color>(std::countr_zero(bits));
    auto& state = colors_[color];
    if (!state.configured) continue; // advancing unknown colors is a no-op
    const u32 last = static_cast<u32>(state.config.positions.size()) - 1;
    if (state.current < last) {
      ++state.current;
    } else if (state.config.ring_mode) {
      state.current = 0;
    } else {
      continue; // saturated: current position (and its cached masks) stand
    }
    refresh_current(color);
  }
}

u32 Router::position(Color color) const {
  check_routable(color);
  FVDF_CHECK(colors_[color].configured);
  return colors_[color].current;
}

} // namespace fvdf::wse
