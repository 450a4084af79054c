#pragma once
// Any-source whole-fabric broadcast — the data-movement primitive named in
// the paper's future work: "we also need to develop data broadcasting
// strategies to support data movement from any cell in the
// arbitrary-shaped mesh."
//
// Two-phase flood from an arbitrary source PE (sx, sy):
//  1. the source transmits its block east AND west along its own row in a
//     single send (the router fans one injection into both links); every
//     row PE taps the block and forwards it outward;
//  2. every PE of the source row (including the source) retransmits the
//     block north and south along its column; column PEs tap and forward.
// Every PE receives the block exactly once; the hop count from the source
// to PE (x, y) is the Manhattan distance — the fabric-optimal broadcast
// tree rooted anywhere.

#include "csl/colors.hpp"
#include "wse/program.hpp"

namespace fvdf::csl {

using wse::ImageBuilder;
using wse::PeCoord;

/// The broadcast's colors and flood routes. csl::AnySourceEmitter
/// (csl/lowering.hpp) emits one broadcast round as bytecode.
class AnySourceBroadcast {
public:
  struct Colors {
    Color row = kBcastAnyRow;
    Color col = kBcastAnyCol;
    Color done = kBcastAnyDone; // local
  };

  AnySourceBroadcast();
  explicit AnySourceBroadcast(Colors colors);

  /// Writes routes for a broadcast rooted at `source` into the PE's image;
  /// the root is a layout-time parameter, exactly like a CSL layout block.
  void configure(ImageBuilder& ctx, PeCoord source);

private:
  Colors colors_;
};

} // namespace fvdf::csl
