#include "csl/broadcast.hpp"

#include "wse/router.hpp"

namespace fvdf::csl {

using wse::ColorConfig;
using wse::Dir;
using wse::DirMask;
using wse::SwitchPosition;

namespace {
const SwitchPosition kSending{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)};
const SwitchPosition kReceiving{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)};
} // namespace

EastwardExchange::EastwardExchange() : EastwardExchange(Colors{}) {}
EastwardExchange::EastwardExchange(Colors colors) : colors_(colors) {}

void EastwardExchange::configure(ImageBuilder& ctx) {
  // Listing 1's two-position ring; even PEs start in the Sending position,
  // odd PEs in the Receiving one (expressed by rotating the position list,
  // since a freshly configured color starts at position 0).
  const bool even_x = (ctx.coord().x % 2) == 0;
  ColorConfig config;
  config.positions = even_x ? std::vector<SwitchPosition>{kSending, kReceiving}
                            : std::vector<SwitchPosition>{kReceiving, kSending};
  config.ring_mode = true;
  // The east-most PE's Sending position has no partner: edge-clip it to a
  // null route (the wavelet is deliberately discarded; see SwitchPosition).
  for (auto& pos : config.positions)
    pos.tx = wse::clip_to_fabric(pos.tx, ctx.coord(), ctx.fabric_width(),
                                 ctx.fabric_height());
  ctx.configure_router(colors_.data, config);
}

} // namespace fvdf::csl
