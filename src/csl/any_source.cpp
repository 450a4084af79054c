#include "csl/any_source.hpp"

#include "common/error.hpp"
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

AnySourceBroadcast::AnySourceBroadcast() : AnySourceBroadcast(Colors{}) {}
AnySourceBroadcast::AnySourceBroadcast(Colors colors) : colors_(colors) {}

void AnySourceBroadcast::configure(ImageBuilder& ctx, PeCoord source) {
  FVDF_CHECK(source.x >= 0 && source.x < ctx.fabric_width());
  FVDF_CHECK(source.y >= 0 && source.y < ctx.fabric_height());
  const i64 x = ctx.coord().x;
  const i64 y = ctx.coord().y;

  // Edge-clip the flood fan-outs: a row/column terminus forwards outward
  // into nothing, which becomes "tap the ramp only" instead of a transmit
  // off the fabric (see HaloExchange::configure).
  auto install = [&](Color color, ColorConfig config) {
    for (auto& pos : config.positions)
      pos.tx = wse::clip_to_fabric(pos.tx, ctx.coord(), ctx.fabric_width(),
                                   ctx.fabric_height());
    ctx.configure_router(color, std::move(config));
  };

  // Phase 1 — row flood (only the source row carries this color).
  if (y == source.y) {
    if (x == source.x) {
      // One injection fans into both row directions.
      install(colors_.row, route(DirMask::of(Dir::Ramp), DirMask::of(Dir::East, Dir::West)));
    } else if (x < source.x) {
      install(colors_.row, route(DirMask::of(Dir::East), DirMask::of(Dir::Ramp, Dir::West)));
    } else {
      install(colors_.row, route(DirMask::of(Dir::West), DirMask::of(Dir::Ramp, Dir::East)));
    }
  }

  // Phase 2 — column fan-out from every source-row PE.
  if (y == source.y) {
    install(colors_.col, route(DirMask::of(Dir::Ramp), DirMask::of(Dir::North, Dir::South)));
  } else if (y < source.y) {
    // Data travels north: arrives from the South link.
    install(colors_.col, route(DirMask::of(Dir::South), DirMask::of(Dir::Ramp, Dir::North)));
  } else {
    install(colors_.col, route(DirMask::of(Dir::North), DirMask::of(Dir::Ramp, Dir::South)));
  }
}

} // namespace fvdf::csl
