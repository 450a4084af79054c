// CSL runtime-layer tests: the Table-I halo exchange (all parities and
// edge cases, switch positions restored), the 3-phase whole-fabric
// all-reduce (== serial sum on every fabric shape) and the Fig.-4
// eastward exchange with a single color + ring mode, all lowered to
// bytecode through their csl emitters.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "csl/allreduce.hpp"
#include "csl/broadcast.hpp"
#include "csl/colors.hpp"
#include "csl/halo.hpp"
#include "csl/lowering.hpp"
#include "wse/bytecode.hpp"
#include "wse/fabric.hpp"

#include "golden_digest.hpp"

namespace fvdf::csl {
namespace {

using wse::Dir;
using wse::dsd;
using wse::Fabric;
using wse::MemSpan;
using wse::ImageBuilder;
using wse::PeCoord;
using wse::PeProgram;
namespace bc = wse::bc;

// Each PE's column value is a unique fingerprint: f(x, y, z) = x*10000 +
// y*100 + z, so any misdelivery is detectable.
f32 fingerprint(i64 x, i64 y, u32 z) {
  return static_cast<f32>(x * 10000 + y * 100 + static_cast<i64>(z));
}

// ---------- HaloExchange ----------
// The exchange runs as bytecode lowered through csl::HaloEmitter, the way
// the solver's device programs run it.

// Buffers of one halo test PE. Every PE allocates the same sequence, so
// one layout describes the whole fabric.
struct HaloLayout {
  MemSpan column{}, west{}, east{}, south{}, north{};
  MemSpan faces{}; // received-face count, stored when the last round ends
};

// `rounds` back-to-back exchanges of an nz-word fingerprint column; each
// received face bumps a counter (the per-face work slot the solver uses
// for its flux).
wse::ProgramFactory halo_test_program(u32 nz, u32 rounds, HaloLayout* out) {
  return [=](PeCoord) {
    return std::make_unique<PeProgram>([=](ImageBuilder& ctx) {
      HaloExchange().configure(ctx);
      HaloLayout& L = *out;
      L.column = ctx.memory().alloc_f32("column", nz);
      for (u32 z = 0; z < nz; ++z)
        ctx.memory().store(L.column.offset_words + z,
                           fingerprint(ctx.coord().x, ctx.coord().y, z));
      for (MemSpan* buf : {&L.west, &L.east, &L.south, &L.north}) {
        *buf = ctx.memory().alloc_f32("halo", nz);
        for (u32 z = 0; z < nz; ++z)
          ctx.memory().store(buf->offset_words + z, -1.0f); // sentinel
      }
      L.faces = ctx.memory().alloc_f32("faces", 1);

      bc::Builder b("halo-test");
      HaloEmitter halo(b, ctx.coord(), ctx.fabric_width(), ctx.fabric_height(),
                       {{}, dsd(L.column), dsd(L.west), dsd(L.east),
                        dsd(L.south), dsd(L.north),
                        [](bc::Builder& bb, Dir) { bb.usub(4, 4, 5); },
                        /*cont_reg=*/0, /*pending_ureg=*/0});
      const auto entry = b.make_label();
      const auto round = b.make_label();
      const auto done = b.make_label();
      b.bind(entry);
      b.set_entry(entry);
      b.umovi(4, 0.0f);  // faces received
      b.umovi(5, -1.0f); // f4 - f5 counts up
      b.setu(1, rounds);
      b.bind(round);
      b.setc(0, done);
      halo.emit_start();
      b.ret();
      b.bind(done);
      b.decjnz(1, round);
      b.rstore(4, L.faces.offset_words);
      b.halt();
      b.ret();
      halo.emit_handlers();
      return std::make_shared<const bc::Program>(b.finish());
    });
  };
}

// Every halo buffer holds its neighbor's fingerprint column, and the
// buffers of non-existent neighbors are untouched.
void expect_halos_delivered(Fabric& fabric, const HaloLayout& L, u32 nz) {
  const i64 width = fabric.width();
  const i64 height = fabric.height();
  for (i64 y = 0; y < height; ++y)
    for (i64 x = 0; x < width; ++x) {
      auto check = [&](const MemSpan& buf, i64 nx, i64 ny, bool exists) {
        for (u32 z = 0; z < nz; ++z) {
          const f32 got = fabric.pe_memory(x, y).load(buf.offset_words + z);
          if (exists) {
            EXPECT_FLOAT_EQ(got, fingerprint(nx, ny, z))
                << "PE(" << x << "," << y << ") z=" << z;
          } else {
            EXPECT_FLOAT_EQ(got, -1.0f) << "boundary halo must stay untouched";
          }
        }
      };
      check(L.west, x - 1, y, x > 0);          // west neighbor
      check(L.east, x + 1, y, x < width - 1);  // east neighbor
      check(L.south, x, y + 1, y < height - 1); // fabric south = y+1
      check(L.north, x, y - 1, y > 0);          // fabric north = y-1
    }
}

struct FabricShape {
  i64 width, height;
};

class HaloShapes : public ::testing::TestWithParam<FabricShape> {};

TEST_P(HaloShapes, DeliversAllFourNeighborColumns) {
  const auto [width, height] = GetParam();
  Fabric fabric(width, height);
  HaloLayout layout;
  fabric.load(halo_test_program(6, 1, &layout));
  const auto result = fabric.run();
  EXPECT_TRUE(result.all_halted);
  expect_halos_delivered(fabric, layout, 6);
}

INSTANTIATE_TEST_SUITE_P(Shapes, HaloShapes,
                         ::testing::Values(FabricShape{1, 1}, FabricShape{2, 1},
                                           FabricShape{1, 2}, FabricShape{2, 2},
                                           FabricShape{3, 3}, FabricShape{4, 3},
                                           FabricShape{3, 4}, FabricShape{5, 2},
                                           FabricShape{2, 5}, FabricShape{6, 6},
                                           FabricShape{7, 4}, FabricShape{4, 7}));

TEST(HaloExchange, SwitchPositionsReturnToInitialAfterEachRound) {
  // Ring mode + the advance protocol must restore every router; three
  // consecutive rounds would fail otherwise.
  Fabric fabric(4, 3);
  HaloLayout layout;
  fabric.load(halo_test_program(3, 3, &layout));
  EXPECT_TRUE(fabric.run().all_halted);
  expect_halos_delivered(fabric, layout, 3);
  for (i64 y = 0; y < 3; ++y)
    for (i64 x = 0; x < 4; ++x)
      for (wse::Color c : {kHaloC1, kHaloC2, kHaloC3, kHaloC4})
        EXPECT_EQ(fabric.pe_router(x, y).position(c), 0u)
            << "PE(" << x << "," << y << ") color " << static_cast<int>(c);
}

TEST(HaloExchange, FaceWorkRunsPerReceivedFace) {
  Fabric fabric(3, 3);
  HaloLayout layout;
  fabric.load(halo_test_program(2, 1, &layout));
  EXPECT_TRUE(fabric.run().all_halted);
  auto faces = [&](i64 x, i64 y) {
    return fabric.pe_memory(x, y).load(layout.faces.offset_words);
  };
  // Center PE has 4 neighbors, corner has 2, edge-middle has 3.
  EXPECT_EQ(faces(1, 1), 4.0f);
  EXPECT_EQ(faces(0, 0), 2.0f);
  EXPECT_EQ(faces(1, 0), 3.0f);
}

TEST(HaloExchange, TrafficMatchesFourColumnSendsPerInteriorPe) {
  const i64 width = 4, height = 4;
  const u32 nz = 8;
  Fabric fabric(width, height);
  HaloLayout layout;
  fabric.load(halo_test_program(nz, 1, &layout));
  EXPECT_TRUE(fabric.run().all_halted);
  // Every PE sends its column 4 times (one per step); edge sends drop.
  const u64 expected_injected = static_cast<u64>(width * height) * 4 * nz;
  EXPECT_EQ(fabric.stats().words_delivered + fabric.stats().words_dropped,
            expected_injected);
}

// ---------- AllReduce ----------
// Lowered through csl::ReduceEmitter. Round r contributes value + r on
// every PE and stores the fabric total to results[r].

wse::ProgramFactory allreduce_test_program(
    const std::function<f32(PeCoord)>& value_of, u32 rounds, MemSpan* results) {
  return [=](PeCoord coord) {
    const f32 value = value_of(coord);
    return std::make_unique<PeProgram>([=](ImageBuilder& ctx) {
      AllReduce reduce;
      reduce.configure(ctx);
      *results = ctx.memory().alloc_f32("results", rounds);
      bc::Builder b("allreduce-test");
      ReduceEmitter emitter(b, ctx.coord(), ctx.fabric_width(),
                            ctx.fabric_height(),
                            {{}, reduce.slot_value().offset_words,
                             reduce.slot_in().offset_words, /*cont_reg=*/1});
      const auto entry = b.make_label();
      b.bind(entry);
      b.set_entry(entry);
      emitter.emit_handler_bindings();
      for (u32 r = 0; r < rounds; ++r) {
        const auto after = b.make_label();
        b.umovi(0, value + static_cast<f32>(r)); // contribution in f0
        b.setc(1, after);
        b.jmp(emitter.start_label());
        b.bind(after); // fabric total back in f0
        b.rstore(0, results->offset_words + r);
      }
      b.halt();
      b.ret();
      emitter.emit_blocks();
      return std::make_shared<const bc::Program>(b.finish());
    });
  };
}

// Every PE's round-`round` total.
std::vector<f32> round_totals(Fabric& fabric, const MemSpan& results, u32 round) {
  std::vector<f32> totals;
  for (i64 y = 0; y < fabric.height(); ++y)
    for (i64 x = 0; x < fabric.width(); ++x)
      totals.push_back(fabric.pe_memory(x, y).load(results.offset_words + round));
  return totals;
}

class AllReduceShapes : public ::testing::TestWithParam<FabricShape> {};

TEST_P(AllReduceShapes, SumsEveryPeContribution) {
  const auto [width, height] = GetParam();
  Fabric fabric(width, height);
  const auto value_of = [](PeCoord c) {
    return static_cast<f32>(c.x + 10 * c.y + 1);
  };
  f64 expected = 0;
  for (i64 y = 0; y < height; ++y)
    for (i64 x = 0; x < width; ++x) expected += value_of({x, y});
  MemSpan results{};
  fabric.load(allreduce_test_program(value_of, 1, &results));
  ASSERT_TRUE(fabric.run().all_halted);
  for (f32 total : round_totals(fabric, results, 0))
    EXPECT_FLOAT_EQ(total, static_cast<f32>(expected));
}

INSTANTIATE_TEST_SUITE_P(Shapes, AllReduceShapes,
                         ::testing::Values(FabricShape{1, 1}, FabricShape{2, 1},
                                           FabricShape{1, 2}, FabricShape{2, 2},
                                           FabricShape{3, 2}, FabricShape{2, 3},
                                           FabricShape{5, 5}, FabricShape{8, 3},
                                           FabricShape{3, 8}, FabricShape{7, 7},
                                           FabricShape{1, 6}, FabricShape{6, 1},
                                           FabricShape{10, 10}));

TEST(AllReduce, BackToBackRoundsProduceFreshSums) {
  const i64 width = 4, height = 3;
  Fabric fabric(width, height);
  MemSpan results{};
  fabric.load(allreduce_test_program([](PeCoord) { return 1.0f; }, 3, &results));
  ASSERT_TRUE(fabric.run().all_halted);
  const auto pes = static_cast<f32>(width * height);
  // Round k contributes (1 + k) per PE.
  for (u32 round = 0; round < 3; ++round)
    for (f32 total : round_totals(fabric, results, round))
      EXPECT_EQ(total, static_cast<f32>(round + 1) * pes) << "round " << round;
}

TEST(AllReduce, HandlesNegativeAndFractionalValues) {
  Fabric fabric(3, 3);
  const auto value_of = [](PeCoord c) {
    return 0.25f * static_cast<f32>(c.x) - 0.75f * static_cast<f32>(c.y);
  };
  f64 expected = 0;
  for (i64 y = 0; y < 3; ++y)
    for (i64 x = 0; x < 3; ++x) expected += value_of({x, y});
  MemSpan results{};
  fabric.load(allreduce_test_program(value_of, 1, &results));
  ASSERT_TRUE(fabric.run().all_halted);
  for (f32 total : round_totals(fabric, results, 0))
    EXPECT_NEAR(total, expected, 1e-5) << "fp32 chain reduction";
}

// ---------- EastwardExchange (Fig. 4) ----------

// Buffers of one exchange test PE (the same offsets on every PE).
struct ExchangeLayout {
  MemSpan mine{}, theirs{};
};

// One eastward exchange of an nz-word fingerprint column per PE, lowered
// through csl::EastwardEmitter, then halt.
wse::ProgramFactory eastward_test_program(u32 nz, ExchangeLayout* out) {
  return [=](PeCoord) {
    return std::make_unique<PeProgram>([=](ImageBuilder& ctx) {
      EastwardExchange().configure(ctx);
      ExchangeLayout& L = *out;
      L.mine = ctx.memory().alloc_f32("mine", nz);
      L.theirs = ctx.memory().alloc_f32("theirs", nz);
      for (u32 z = 0; z < nz; ++z) {
        ctx.memory().store(L.mine.offset_words + z,
                           fingerprint(ctx.coord().x, ctx.coord().y, z));
        ctx.memory().store(L.theirs.offset_words + z, -1.0f);
      }
      bc::Builder b("eastward-test");
      EastwardEmitter exchange(b, ctx.coord(),
                               {{}, dsd(L.mine), dsd(L.theirs), /*cont_reg=*/0});
      const auto done = b.make_label();
      b.setc(0, done);
      exchange.emit_start();
      b.ret();
      b.bind(done);
      b.halt();
      b.ret();
      exchange.emit_handlers();
      return std::make_shared<const bc::Program>(b.finish());
    });
  };
}

// One eastward exchange of nz-word fingerprint columns, digested: the
// cycle total, every fabric statistic, every PE's sent and received words
// and its final switch position.
std::string eastward_digest(i64 width, i64 height, u32 nz) {
  Fabric fabric(width, height);
  ExchangeLayout layout;
  fabric.load(eastward_test_program(nz, &layout));
  const auto run = fabric.run();
  EXPECT_TRUE(run.all_halted) << width << "x" << height;
  // Every PE holds its western neighbor's column; x = 0 has none.
  for (i64 y = 0; y < height; ++y)
    for (i64 x = 0; x < width; ++x)
      for (u32 z = 0; z < nz; ++z)
        EXPECT_FLOAT_EQ(
            fabric.pe_memory(x, y).load(layout.theirs.offset_words + z),
            x > 0 ? fingerprint(x - 1, y, z) : -1.0f)
            << "PE(" << x << "," << y << ") z=" << z;
  golden::Digest d;
  d.add(run.cycles).add(fabric.stats());
  for (i64 y = 0; y < height; ++y)
    for (i64 x = 0; x < width; ++x) {
      for (const MemSpan* span : {&layout.mine, &layout.theirs})
        for (u32 z = 0; z < nz; ++z)
          d.add(fabric.pe_memory(x, y).load(span->offset_words + z));
      d.add(fabric.pe_router(x, y).position(kExchangeX));
    }
  return d.hex();
}

TEST(EastwardExchange, EveryPeReceivesItsWesternNeighborData) {
  const struct {
    i64 width;
    const char* digest;
  } kWidths[] = {{1, "a623f5a5486e1985"}, {2, "6923b8603fec708c"},
                  {3, "2b975b62b90589d9"}, {4, "a5a3413ef97a7016"},
                  {7, "b110fe5833732d30"}, {8, "ae42db90b332cbc5"}};
  for (const auto& [width, digest] : kWidths)
    EXPECT_EQ(eastward_digest(width, 1, 5), digest) << "width " << width;
}

TEST(EastwardExchange, RingRestoresSwitchPositions) {
  Fabric fabric(4, 1);
  ExchangeLayout layout;
  fabric.load(eastward_test_program(3, &layout));
  ASSERT_TRUE(fabric.run().all_halted);
  for (i64 x = 0; x < 4; ++x)
    EXPECT_EQ(fabric.pe_router(x, 0).position(kExchangeX), 0u) << "PE " << x;
}

TEST(EastwardExchange, RunsOnEveryRowOfA2dFabricIndependently) {
  EXPECT_EQ(eastward_digest(3, 4, 4), "de913a3d11538726");
}

} // namespace
} // namespace fvdf::csl
