#pragma once
// Colors: the WSE's routing/tasking identifiers. Wavelets are "annotated
// with a color for routing and indicating the type of a message" (Sec. III).
// Colors 0..23 are routable through the fabric; 24..30 are local-only task
// colors (activations within a PE), mirroring the real hardware's split.

#include "common/error.hpp"
#include "common/types.hpp"

namespace fvdf::wse {

using Color = u8;

constexpr Color kNumRoutableColors = 24;
constexpr Color kNumColors = 44; // 24 routable + 20 local task IDs
constexpr Color kInvalidColor = 0xff;

inline bool is_routable(Color color) { return color < kNumRoutableColors; }
inline bool is_local_only(Color color) {
  return color >= kNumRoutableColors && color < kNumColors;
}
inline bool is_valid(Color color) { return color < kNumColors; }

inline void check_routable(Color color) {
  FVDF_CHECK_MSG(is_routable(color),
                 "color " << static_cast<int>(color) << " is not routable (0.."
                          << static_cast<int>(kNumRoutableColors - 1) << ")");
}

inline void check_valid(Color color) {
  FVDF_CHECK_MSG(is_valid(color), "invalid color " << static_cast<int>(color));
}

/// Bitmask over routable colors, used by control wavelets to name the
/// switch positions they advance.
using ColorMask = u32;

inline ColorMask color_bit(Color color) {
  check_routable(color);
  return ColorMask{1} << color;
}

/// Every routable color's bit: a mask's bits above it name no color.
constexpr ColorMask kRoutableColorMask = (ColorMask{1} << kNumRoutableColors) - 1;

/// Bitmask over *all* colors (routable and local task ids), used by the
/// static program verifier's manifests (see wse/program.hpp).
using ColorSet = u64;
static_assert(kNumColors <= 64, "ColorSet holds one bit per color");

inline ColorSet color_set_bit(Color color) {
  check_valid(color);
  return ColorSet{1} << color;
}

inline bool color_set_contains(ColorSet set, Color color) {
  return is_valid(color) && (set & (ColorSet{1} << color)) != 0;
}

} // namespace fvdf::wse
