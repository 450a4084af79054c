#pragma once
// The eastward localized broadcast of Figure 4 / Listing 1: every PE in a
// row exchanges data with its neighbors over a *single* color by
// alternating two router switch positions with ring_mode:
//
//   sending position:   { rx = RAMP, tx = EAST }   (broadcast root)
//   receiving position: { rx = WEST, tx = RAMP }
//
// Initially even-x PEs are Sending and odd-x PEs Receiving. A sender
// transmits its data followed by a control wavelet that advances the
// color's switch position in its own router and its neighbor's — the
// Sending PE becomes Receiving and vice versa (Fig. 4b). The new senders
// transmit in step 2, and ring_mode returns every router to its initial
// position. After two steps each PE has sent its block east and received
// its western neighbor's block.
//
// This component exercises the switch-position machinery in isolation
// (tests, the verifier fixtures); the solver's 4-step halo exchange
// (csl/halo.hpp) generalizes the same mechanism to four directions.

#include "csl/colors.hpp"
#include "wse/program.hpp"

namespace fvdf::csl {

using wse::ImageBuilder;

/// The exchange's colors and ring route. csl::EastwardEmitter
/// (csl/lowering.hpp) emits the two steps themselves as bytecode.
class EastwardExchange {
public:
  struct Colors {
    Color data = kExchangeX;
    Color done = kExchangeDone; // local
  };

  EastwardExchange();
  explicit EastwardExchange(Colors colors);

  /// Writes the two-position ring route (Listing 1) into the PE's image.
  void configure(ImageBuilder& ctx);

private:
  Colors colors_;
};

} // namespace fvdf::csl
