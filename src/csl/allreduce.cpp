#include "csl/allreduce.hpp"

#include "wse/router.hpp"

namespace fvdf::csl {

using wse::ColorConfig;
using wse::Dir;
using wse::DirMask;
using wse::SwitchPosition;

namespace {
ColorConfig route(DirMask rx, DirMask tx) {
  ColorConfig config;
  config.positions = {SwitchPosition{rx, tx}};
  return config;
}
} // namespace

AllReduce::AllReduce() : AllReduce(Colors{}) {}
AllReduce::AllReduce(Colors colors) : colors_(colors) {}

void AllReduce::configure(ImageBuilder& ctx) {
  const i64 x = ctx.coord().x;
  const i64 y = ctx.coord().y;
  const i64 width = ctx.fabric_width();
  const i64 height = ctx.fabric_height();
  const bool odd_x = (x % 2) != 0;
  const bool odd_y = (y % 2) != 0;

  // Edge-clip every transmit set so no installed route points off the
  // fabric (see HaloExchange::configure); positions that only ever carry
  // traffic away from the edge are unaffected.
  auto install = [&](Color color, ColorConfig config) {
    for (auto& pos : config.positions)
      pos.tx = wse::clip_to_fabric(pos.tx, ctx.coord(), width, height);
    ctx.configure_router(color, std::move(config));
  };

  // Row-reduce chain: a PE injects its partial eastward on its parity
  // color and accepts the western neighbor's partial on the other.
  if (odd_x) {
    install(colors_.row_b, route(DirMask::of(Dir::Ramp), DirMask::of(Dir::East)));
    install(colors_.row_a, route(DirMask::of(Dir::West), DirMask::of(Dir::Ramp)));
  } else {
    install(colors_.row_a, route(DirMask::of(Dir::Ramp), DirMask::of(Dir::East)));
    install(colors_.row_b, route(DirMask::of(Dir::West), DirMask::of(Dir::Ramp)));
  }
  // Column-reduce chain (only the right-most column carries traffic, but
  // routes are installed everywhere — unused routes are harmless, exactly
  // like a real CSL layout block).
  if (odd_y) {
    install(colors_.col_b, route(DirMask::of(Dir::Ramp), DirMask::of(Dir::South)));
    install(colors_.col_a, route(DirMask::of(Dir::North), DirMask::of(Dir::Ramp)));
  } else {
    install(colors_.col_a, route(DirMask::of(Dir::Ramp), DirMask::of(Dir::South)));
    install(colors_.col_b, route(DirMask::of(Dir::North), DirMask::of(Dir::Ramp)));
  }

  // Phase-3 broadcasts. Up the right-most column with a tap at every PE:
  if (y == height - 1) {
    install(colors_.bcast_col, route(DirMask::of(Dir::Ramp), DirMask::of(Dir::North)));
  } else if (y == 0) {
    install(colors_.bcast_col, route(DirMask::of(Dir::South), DirMask::of(Dir::Ramp)));
  } else {
    install(colors_.bcast_col,
            route(DirMask::of(Dir::South), DirMask::of(Dir::Ramp, Dir::North)));
  }
  // Westward along each row:
  if (x == width - 1) {
    install(colors_.bcast_row, route(DirMask::of(Dir::Ramp), DirMask::of(Dir::West)));
  } else if (x == 0) {
    install(colors_.bcast_row, route(DirMask::of(Dir::East), DirMask::of(Dir::Ramp)));
  } else {
    install(colors_.bcast_row,
            route(DirMask::of(Dir::East), DirMask::of(Dir::Ramp, Dir::West)));
  }

  slot_value_ = ctx.memory().alloc_f32("allreduce.value", 1);
  slot_in_ = ctx.memory().alloc_f32("allreduce.in", 1);
}

} // namespace fvdf::csl
