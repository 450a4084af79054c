#pragma once
// The four-step halo exchange of Table I.
//
// Each PE sends its local column to its four cardinal neighbors and
// receives theirs, using two colors per dimension and router switch
// positions that alternate the send direction (east in steps 1-2, west in
// steps 3-4; north then south on the Y dimension). Every data message
// trails a control wavelet that advances the switch positions of its own
// color in every router it passes — Listing 1's mechanism — so sender and
// receiver configurations stay in lock-step, and ring_mode returns them to
// the initial position for the next iteration.
//
// Faithful details:
//  * odd-index PEs send first on C1/C3, even-index PEs on C2/C4 (Table I);
//  * the X and Y actions of a step run concurrently, and progression to
//    the next step waits for both actions' completion tasks;
//  * a received face runs the caller's per-face work at once, so that
//    face's flux is computed while other transfers are still in flight
//    (Sec. III-B's event-driven overlap);
//  * PEs on the fabric edge skip actions whose partner does not exist and
//    advance their own router locally (the fabric_control write of
//    Listing 1) to stay in phase.

#include "csl/colors.hpp"
#include "wse/program.hpp"

namespace fvdf::csl {

using wse::ImageBuilder;

/// The exchange's colors and router configuration. csl::HaloEmitter
/// (csl/lowering.hpp) emits the four steps themselves as bytecode.
class HaloExchange {
public:
  struct Colors {
    Color c1 = kHaloC1;
    Color c2 = kHaloC2;
    Color c3 = kHaloC3;
    Color c4 = kHaloC4;
    Color done_x = kHaloDoneX; // local: X action of current step finished
    Color done_y = kHaloDoneY; // local: Y action of current step finished
  };

  HaloExchange();
  explicit HaloExchange(Colors colors);

  /// Writes the parity-dependent router configurations into the PE's
  /// image, once per PE.
  void configure(ImageBuilder& ctx);

private:
  Colors colors_;
};

} // namespace fvdf::csl
