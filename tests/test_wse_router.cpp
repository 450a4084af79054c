// Router tests: switch positions, ring mode, control-advance semantics,
// misroute/backpressure predicates — Listing 1's machinery in isolation.

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "wse/router.hpp"

namespace fvdf::wse {
namespace {

ColorConfig two_position_ring() {
  // Listing 1 verbatim: pos0 = {rx RAMP, tx EAST}, pos1 = {rx WEST, tx RAMP}.
  ColorConfig config;
  config.positions = {
      SwitchPosition{DirMask::of(Dir::Ramp), DirMask::of(Dir::East)},
      SwitchPosition{DirMask::of(Dir::West), DirMask::of(Dir::Ramp)},
  };
  config.ring_mode = true;
  return config;
}

TEST(DirMaskTest, OfAndContains) {
  const DirMask mask = DirMask::of(Dir::Ramp, Dir::East);
  EXPECT_TRUE(mask.contains(Dir::Ramp));
  EXPECT_TRUE(mask.contains(Dir::East));
  EXPECT_FALSE(mask.contains(Dir::West));
  EXPECT_FALSE(DirMask{}.contains(Dir::Ramp));
  EXPECT_TRUE(DirMask{}.empty());
}

TEST(Geometry, ArrivalSideIsOpposite) {
  EXPECT_EQ(arrival_side(Dir::East), Dir::West);
  EXPECT_EQ(arrival_side(Dir::West), Dir::East);
  EXPECT_EQ(arrival_side(Dir::North), Dir::South);
  EXPECT_EQ(arrival_side(Dir::South), Dir::North);
  EXPECT_THROW(arrival_side(Dir::Ramp), Error);
}

TEST(Geometry, NeighborRespectsPaperOrientation) {
  // North is y-1, South is y+1 (Sec. III-B).
  const auto n = neighbor({2, 2}, Dir::North, 5, 5);
  ASSERT_TRUE(n);
  EXPECT_EQ(n->y, 1);
  const auto s = neighbor({2, 2}, Dir::South, 5, 5);
  ASSERT_TRUE(s);
  EXPECT_EQ(s->y, 3);
  EXPECT_FALSE(neighbor({0, 0}, Dir::West, 5, 5));
  EXPECT_FALSE(neighbor({4, 4}, Dir::East, 5, 5));
  EXPECT_FALSE(neighbor({0, 0}, Dir::North, 5, 5));
  EXPECT_FALSE(neighbor({4, 4}, Dir::South, 5, 5));
}

TEST(RouterTest, RoutesPerCurrentPosition) {
  Router router;
  router.configure(0, two_position_ring());
  EXPECT_EQ(router.position(0), 0u);
  const DirMask tx = router.route(0, Dir::Ramp);
  EXPECT_TRUE(tx.contains(Dir::East));
  EXPECT_FALSE(tx.contains(Dir::Ramp));
}

TEST(RouterTest, AdvanceMovesToNextPosition) {
  Router router;
  router.configure(0, two_position_ring());
  router.advance(color_bit(0));
  EXPECT_EQ(router.position(0), 1u);
  const DirMask tx = router.route(0, Dir::West);
  EXPECT_TRUE(tx.contains(Dir::Ramp));
}

TEST(RouterTest, RingModeWrapsAround) {
  Router router;
  router.configure(0, two_position_ring());
  router.advance(color_bit(0));
  router.advance(color_bit(0));
  EXPECT_EQ(router.position(0), 0u); // back to the sending position
}

TEST(RouterTest, WithoutRingModeSaturates) {
  Router router;
  ColorConfig config = two_position_ring();
  config.ring_mode = false;
  router.configure(0, config);
  router.advance(color_bit(0));
  router.advance(color_bit(0));
  router.advance(color_bit(0));
  EXPECT_EQ(router.position(0), 1u);
}

TEST(RouterTest, AdvanceMaskSelectsColors) {
  Router router;
  router.configure(0, two_position_ring());
  router.configure(1, two_position_ring());
  router.advance(color_bit(1));
  EXPECT_EQ(router.position(0), 0u);
  EXPECT_EQ(router.position(1), 1u);
}

TEST(RouterTest, AdvanceOfUnconfiguredColorIsNoop) {
  Router router;
  router.configure(0, two_position_ring());
  EXPECT_NO_THROW(router.advance(color_bit(5)));
}

TEST(RouterTest, AcceptsReflectsCurrentRxSet) {
  Router router;
  router.configure(0, two_position_ring());
  EXPECT_TRUE(router.accepts(0, Dir::Ramp));
  EXPECT_FALSE(router.accepts(0, Dir::West)); // backpressure case
  router.advance(color_bit(0));
  EXPECT_TRUE(router.accepts(0, Dir::West));
  EXPECT_FALSE(router.accepts(0, Dir::Ramp));
}

TEST(RouterTest, UnconfiguredColorIsAnError) {
  Router router;
  EXPECT_FALSE(router.is_configured(3));
  EXPECT_THROW(router.route(3, Dir::Ramp), Error);
  EXPECT_THROW(router.accepts(3, Dir::Ramp), Error);
  EXPECT_THROW(router.position(3), Error);
}

TEST(RouterTest, MisrouteThrows) {
  Router router;
  router.configure(0, two_position_ring());
  EXPECT_THROW(router.route(0, Dir::North), Error);
}

TEST(RouterTest, BroadcastFanoutIsExpressible) {
  // A bcast tap: rx South -> tx {Ramp, North} (the all-reduce's phase 3).
  Router router;
  ColorConfig config;
  config.positions = {
      SwitchPosition{DirMask::of(Dir::South), DirMask::of(Dir::Ramp, Dir::North)}};
  router.configure(2, config);
  const DirMask tx = router.route(2, Dir::South);
  EXPECT_TRUE(tx.contains(Dir::Ramp));
  EXPECT_TRUE(tx.contains(Dir::North));
}

TEST(RouterTest, ConfigValidation) {
  Router router;
  ColorConfig empty;
  EXPECT_THROW(router.configure(0, empty), Error);
  ColorConfig bad;
  bad.positions = {SwitchPosition{DirMask{}, DirMask::of(Dir::East)}};
  EXPECT_THROW(router.configure(0, bad), Error);
}

TEST(RouterTest, ReconfigureResetsPosition) {
  Router router;
  router.configure(0, two_position_ring());
  router.advance(color_bit(0));
  router.configure(0, two_position_ring());
  EXPECT_EQ(router.position(0), 0u);
}

// Reference model of the switch-position semantics: one position list per
// color, advanced one color at a time.
struct ReferenceRouter {
  std::array<std::optional<ColorConfig>, kNumRoutableColors> configs;
  std::array<u32, kNumRoutableColors> current{};

  void configure(Color color, const ColorConfig& config) {
    configs[color] = config;
    current[color] = 0;
  }
  void advance(ColorMask mask) {
    for (Color c = 0; c < kNumRoutableColors; ++c) {
      if ((mask & (ColorMask{1} << c)) == 0 || !configs[c]) continue;
      const auto count = static_cast<u32>(configs[c]->positions.size());
      if (current[c] + 1 < count)
        ++current[c];
      else if (configs[c]->ring_mode)
        current[c] = 0;
    }
  }
  const SwitchPosition& now(Color c) const {
    return configs[c]->positions[current[c]];
  }
};

DirMask random_dirs(Rng& rng, bool nonempty) {
  for (;;) {
    const DirMask mask(static_cast<u8>(rng.uniform_index(32)));
    if (!nonempty || !mask.empty()) return mask;
  }
}

TEST(RouterTest, RandomProgramsMatchTheReferenceModel) {
  constexpr std::array<Dir, 5> kDirs = {Dir::Ramp, Dir::North, Dir::East,
                                        Dir::South, Dir::West};
  Rng rng(20261018);
  for (int trial = 0; trial < 60; ++trial) {
    Router router;
    router.set_coord({3, 7});
    ReferenceRouter ref;
    // Configure (and sometimes reconfigure) a random subset of colors.
    const u64 installs = rng.uniform_index(40);
    for (u64 i = 0; i < installs; ++i) {
      const auto color = static_cast<Color>(rng.uniform_index(kNumRoutableColors));
      ColorConfig config;
      config.ring_mode = rng.uniform_index(2) == 1;
      const u64 count = 1 + rng.uniform_index(8);
      for (u64 p = 0; p < count; ++p)
        config.positions.push_back(
            SwitchPosition{random_dirs(rng, true), random_dirs(rng, false)});
      router.configure(color, config);
      ref.configure(color, config);
    }
    for (int step = 0; step < 40; ++step) {
      // Masks cover unconfigured colors and bits above the routable range.
      const auto mask = static_cast<ColorMask>(rng.next_u64());
      router.advance(mask);
      ref.advance(mask);
      for (Color c = 0; c < kNumRoutableColors; ++c) {
        ASSERT_EQ(router.is_configured(c), ref.configs[c].has_value());
        if (!ref.configs[c]) {
          EXPECT_THROW(router.accepts(c, Dir::Ramp), Error);
          continue;
        }
        ASSERT_EQ(router.position(c), ref.current[c]) << "color " << int{c};
        ASSERT_EQ(router.positions(c).size(), ref.configs[c]->positions.size());
        EXPECT_EQ(router.ring_mode(c), ref.configs[c]->ring_mode);
        const SwitchPosition& pos = ref.now(c);
        bool misroute_checked = false; // one per color and step keeps it fast
        for (Dir from : kDirs) {
          ASSERT_EQ(router.accepts(c, from), pos.rx.contains(from));
          if (pos.rx.contains(from)) {
            ASSERT_EQ(router.route(c, from), pos.tx);
            continue;
          }
          if (misroute_checked) continue;
          misroute_checked = true;
          try {
            (void)router.route(c, from);
            FAIL() << "expected a misroute";
          } catch (const Error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("at switch position " +
                                std::to_string(ref.current[c])),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("at PE (3, 7)"), std::string::npos) << what;
          }
        }
      }
    }
  }
}

TEST(RouterTest, TooManySwitchPositionsAreRejected) {
  Router router;
  ColorConfig config;
  config.positions.assign(Router::kMaxPositions + 1,
                          SwitchPosition{DirMask::of(Dir::Ramp), DirMask{}});
  EXPECT_THROW(router.configure(0, config), Error);
  config.positions.pop_back();
  router.configure(0, config);
  EXPECT_EQ(router.positions(0).size(), Router::kMaxPositions);
}

TEST(ColorTest, RoutableAndLocalRanges) {
  EXPECT_TRUE(is_routable(0));
  EXPECT_TRUE(is_routable(23));
  EXPECT_FALSE(is_routable(24));
  EXPECT_TRUE(is_local_only(24));
  EXPECT_FALSE(is_local_only(23));
  EXPECT_FALSE(is_valid(kNumColors));
  EXPECT_FALSE(is_valid(kInvalidColor));
  EXPECT_THROW(color_bit(24), Error);
}

} // namespace
} // namespace fvdf::wse
