#include "wse/router.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace fvdf::wse {

std::string Router::where() const {
  std::ostringstream os;
  if (x_ >= 0) {
    os << " at PE (" << x_ << ", " << y_ << ")";
  } else {
    os << " at PE (?)";
  }
  return os.str();
}

void Router::configure(Color color, const ColorConfig& config) {
  check_routable(color);
  const std::size_t count = config.positions.size();
  FVDF_CHECK_MSG(count >= 1, "router config for color "
                                 << static_cast<int>(color)
                                 << " needs >= 1 switch position" << where());
  FVDF_CHECK_MSG(count <= kMaxPositions,
                 "router config for color " << static_cast<int>(color) << " has "
                                            << count << " switch positions, at most "
                                            << kMaxPositions << where());
  // rx must be non-empty (a position nothing can enter is dead); tx may be
  // empty — a null route that deliberately discards, the edge-clipped form
  // of a transmit position whose partner PE does not exist.
  for (const auto& pos : config.positions)
    FVDF_CHECK_MSG(!pos.rx.empty(), "switch position of color "
                                        << static_cast<int>(color)
                                        << " must have a non-empty rx set" << where());
  const ColorMask bit = ColorMask{1} << color;
  if ((configured_ & bit) != 0) {
    // A reconfigured color's old positions leave the table; the colors
    // stored behind them move down.
    const u16 begin = first_[color];
    const u16 removed = static_cast<u16>(last_[color] + 1);
    table_.erase(table_.begin() + begin, table_.begin() + begin + removed);
    for (Color c = 0; c < kNumRoutableColors; ++c)
      if ((configured_ & (ColorMask{1} << c)) != 0 && first_[c] > begin)
        first_[c] = static_cast<u16>(first_[c] - removed);
  }
  first_[color] = static_cast<u16>(table_.size());
  table_.insert(table_.end(), config.positions.begin(), config.positions.end());
  last_[color] = static_cast<u8>(count - 1);
  current_[color] = 0;
  configured_ |= bit;
  ring_ = config.ring_mode ? (ring_ | bit) : (ring_ & ~bit);
  rx_[color] = config.positions[0].rx;
  tx_[color] = config.positions[0].tx;
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
                            << static_cast<int>(current_[color]) << where());
  std::abort(); // unreachable: the check above always throws
}

std::span<const SwitchPosition> Router::positions(Color color) const {
  FVDF_CHECK_MSG(is_configured(color),
                 "no route installed for color " << static_cast<int>(color) << where());
  return {table_.data() + first_[color], std::size_t{last_[color]} + 1};
}

bool Router::ring_mode(Color color) const {
  FVDF_CHECK_MSG(is_configured(color),
                 "no route installed for color " << static_cast<int>(color) << where());
  return (ring_ & (ColorMask{1} << color)) != 0;
}

bool Router::may_transmit(Color color, Dir dir) const {
  if (!is_configured(color)) return false;
  const auto all = positions(color);
  return std::any_of(all.begin(), all.end(),
                     [dir](const SwitchPosition& pos) { return pos.tx.contains(dir); });
}

void Router::advance(ColorMask mask) {
  for (ColorMask bits = mask & configured_; bits != 0; bits &= bits - 1) {
    const auto color = static_cast<Color>(std::countr_zero(bits));
    u8 next = current_[color];
    if (next < last_[color]) {
      ++next;
    } else if ((ring_ & (ColorMask{1} << color)) != 0) {
      next = 0;
    } else {
      continue; // saturated: the current position and its masks stand
    }
    current_[color] = next;
    const SwitchPosition& pos = table_[first_[color] + next];
    rx_[color] = pos.rx;
    tx_[color] = pos.tx;
  }
}

u32 Router::position(Color color) const {
  FVDF_CHECK_MSG(is_configured(color),
                 "no route installed for color " << static_cast<int>(color) << where());
  return current_[color];
}

} // namespace fvdf::wse
