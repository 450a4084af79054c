#include "csl/halo.hpp"

#include "wse/router.hpp"

namespace fvdf::csl {

using wse::ColorConfig;
using wse::Dir;
using wse::DirMask;
using wse::SwitchPosition;

namespace {
// Sender route: position 0 transmits toward `first`, position 1 toward
// `second`; ring_mode returns to position 0 for the next iteration.
ColorConfig sender_route(Dir first, Dir second) {
  ColorConfig config;
  config.positions = {
      SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(first)},
      SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(second)},
  };
  config.ring_mode = true;
  return config;
}

// Receiver route: position 0 accepts from `first`, position 1 from `second`.
ColorConfig receiver_route(Dir first, Dir second) {
  ColorConfig config;
  config.positions = {
      SwitchPosition{DirMask::of(first), DirMask::of(Dir::Ramp)},
      SwitchPosition{DirMask::of(second), DirMask::of(Dir::Ramp)},
  };
  config.ring_mode = true;
  return config;
}
} // namespace

HaloExchange::HaloExchange() : HaloExchange(Colors{}) {}
HaloExchange::HaloExchange(Colors colors) : colors_(colors) {}

void HaloExchange::configure(ImageBuilder& ctx) {
  const bool odd_x = (ctx.coord().x % 2) != 0;
  const bool odd_y = (ctx.coord().y % 2) != 0;

  // Edge-clip every transmit set: a sender position whose partner PE does
  // not exist becomes a null route (empty tx) instead of pointing off the
  // fabric, so the static verifier can prove no route exits the edge. The
  // fabric sinks such wavelets and counts them as drops, exactly like the
  // old off-edge transmit did.
  auto clip = [&](ColorConfig config) {
    for (auto& pos : config.positions)
      pos.tx = wse::clip_to_fabric(pos.tx, ctx.coord(), ctx.fabric_width(),
                                   ctx.fabric_height());
    return config;
  };

  // X dimension: odd PEs drive C1 (east in steps 1-2, west in 3-4), even
  // PEs drive C2; the opposite parity receives (from west first, then east).
  if (odd_x) {
    ctx.configure_router(colors_.c1, clip(sender_route(Dir::East, Dir::West)));
    ctx.configure_router(colors_.c2, receiver_route(Dir::West, Dir::East));
  } else {
    ctx.configure_router(colors_.c1, receiver_route(Dir::West, Dir::East));
    ctx.configure_router(colors_.c2, clip(sender_route(Dir::East, Dir::West)));
  }
  // Y dimension: "north" is y-1 (paper orientation). Odd PEs drive C3
  // (north first, then south), even PEs drive C4.
  if (odd_y) {
    ctx.configure_router(colors_.c3, clip(sender_route(Dir::North, Dir::South)));
    ctx.configure_router(colors_.c4, receiver_route(Dir::South, Dir::North));
  } else {
    ctx.configure_router(colors_.c3, receiver_route(Dir::South, Dir::North));
    ctx.configure_router(colors_.c4, clip(sender_route(Dir::North, Dir::South)));
  }
}

} // namespace fvdf::csl
