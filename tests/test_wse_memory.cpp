// PE memory arena tests: capacity accounting, OOM diagnostics, alignment,
// bounds checking — the machinery behind the paper's 48 KiB budget
// (Sec. III-E1).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "wse/dsd.hpp"
#include "wse/memory.hpp"

namespace fvdf::wse {
namespace {

TEST(PeMemory, DefaultCapacityIs48KiB) {
  PeMemory mem;
  EXPECT_EQ(mem.capacity_bytes(), 48u * 1024);
  EXPECT_EQ(mem.used_bytes(), 0u);
  EXPECT_EQ(mem.free_bytes(), 48u * 1024 - mem.reserved_bytes());
}

TEST(PeMemory, AllocationsAccumulate) {
  PeMemory mem(4096, 0);
  const MemSpan a = mem.alloc_f32("a", 100);
  const MemSpan b = mem.alloc_f32("b", 50);
  EXPECT_EQ(a.length, 100u);
  EXPECT_EQ(b.length, 50u);
  EXPECT_EQ(mem.used_bytes(), 600u);
  EXPECT_NE(a.offset_words, b.offset_words);
}

TEST(PeMemory, ByteAllocationsAreFourByteAligned) {
  PeMemory mem(4096, 0);
  (void)mem.alloc_bytes("mask", 3); // rounds to 4
  const MemSpan next = mem.alloc_f32("x", 1);
  EXPECT_EQ(next.offset_words * 4 % 4, 0u);
  EXPECT_EQ(mem.used_bytes(), 8u);
}

TEST(PeMemory, OverflowThrowsWithAllocationMap) {
  PeMemory mem(1024, 0);
  (void)mem.alloc_f32("big", 200); // 800 B
  try {
    (void)mem.alloc_f32("too-much", 100); // 400 B > 224 left
    FAIL() << "expected overflow";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("too-much"), std::string::npos);
    EXPECT_NE(what.find("big"), std::string::npos); // map lists prior allocs
  }
}

TEST(PeMemory, ReserveShrinksBudget) {
  PeMemory mem(1024, 1000);
  EXPECT_EQ(mem.free_bytes(), 24u);
  EXPECT_THROW((void)mem.alloc_f32("x", 10), Error);
  EXPECT_NO_THROW((void)mem.alloc_f32("y", 6));
}

TEST(PeMemory, ReserveMustBeBelowCapacity) {
  EXPECT_THROW(PeMemory(1024, 1024), Error);
}

TEST(PeMemory, LoadStoreRoundTrip) {
  PeMemory mem(1024, 0);
  const MemSpan span = mem.alloc_f32("x", 4);
  mem.store(span.offset_words + 2, 3.5f);
  EXPECT_FLOAT_EQ(mem.load(span.offset_words + 2), 3.5f);
}

TEST(PeMemory, OutOfBoundsAccessThrows) {
  PeMemory mem(1024, 0);
  (void)mem.alloc_f32("x", 4);
  EXPECT_THROW(mem.load(100), Error);
  EXPECT_THROW(mem.store(4, 0.0f), Error); // one past the allocation
}

TEST(PeMemory, ByteAccessors) {
  PeMemory mem(1024, 0);
  const MemSpan span = mem.alloc_bytes("mask", 8);
  mem.store_byte(span.offset_words + 5, 0xab);
  EXPECT_EQ(mem.load_byte(span.offset_words + 5), 0xab);
  EXPECT_THROW(mem.load_byte(999), Error);
}

TEST(PeMemory, StorageGrowsWithAllocationsAndNewWordsReadZero) {
  PeMemory mem; // 48 KiB of capacity, none of it stored up front
  EXPECT_TRUE(mem.contents().empty());
  const MemSpan a = mem.alloc_f32("a", 3);
  EXPECT_EQ(mem.contents().size(), 12u);
  mem.store(a.offset_words + 2, 7.0f);
  const MemSpan b = mem.alloc_f32("b", 5);
  EXPECT_EQ(mem.contents().size(), mem.used_bytes());
  EXPECT_EQ(mem.used_bytes(), 32u);
  EXPECT_FLOAT_EQ(mem.load(a.offset_words + 2), 7.0f); // kept across growth
  for (u32 i = 0; i < b.length; ++i) EXPECT_EQ(mem.load(b.offset_words + i), 0.0f);
  (void)mem.alloc_bytes("mask", 3);
  EXPECT_EQ(mem.contents().size(), 36u);
  EXPECT_EQ(mem.load_byte(34), 0u);
}

TEST(PeMemory, BoundsAndOverflowDiagnosticsNameTheMap) {
  PeMemory mem(1024, 0);
  (void)mem.alloc_f32("x", 4);
  try {
    (void)mem.load(100);
    FAIL() << "expected an out-of-bounds error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "access past allocated memory at words [100, 101): 16 B "
                  "allocated\nallocation map (1 entries):\n  [0, 16) 16 B  x\n"),
              std::string::npos)
        << e.what();
  }
  try {
    mem.assign({}, std::vector<u8>(1028, 0));
    FAIL() << "expected an overflow";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "PE memory overflow allocating 'image' (1028 B): used 16 of "
                  "1024 allocatable B (capacity 1024, reserved 0)\n"
                  "allocation map (1 entries):\n  [0, 16) 16 B  x\n"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(mem.used_bytes(), 16u); // a rejected image changes nothing
}

TEST(PeMemory, AssignHoldsExactlyTheImage) {
  PeMemory source(1024, 0);
  const MemSpan v = source.alloc_f32("v", 2);
  source.store(v.offset_words, 1.25f);
  source.store(v.offset_words + 1, -3.0f);
  (void)source.alloc_bytes("mask", 2);

  PeMemory mem(1024, 0);
  (void)mem.alloc_f32("stale", 100);
  mem.assign(source.allocations(), source.contents());
  EXPECT_EQ(mem.contents(), source.contents());
  EXPECT_EQ(mem.used_bytes(), 12u);
  EXPECT_EQ(mem.allocation_map(), source.allocation_map());
  EXPECT_FLOAT_EQ(mem.load(1), -3.0f);
  EXPECT_THROW(mem.load(3), Error); // the stale allocation is gone
}

TEST(PeMemory, AllocationLookupNamesAMissingSpan) {
  PeMemory mem(1024, 0);
  (void)mem.alloc_f32("a", 2);
  const MemSpan b = mem.alloc_f32("b", 2);
  EXPECT_EQ(mem.allocation("b").offset_bytes, b.offset_words * 4);
  EXPECT_EQ(mem.allocation("b").size_bytes, 8u);
  try {
    (void)mem.allocation("cg.y");
    FAIL() << "expected a missing-allocation error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no allocation named 'cg.y'"),
              std::string::npos)
        << e.what();
  }
}

// ---------- DSD engine on top of the arena ----------

class DsdFixture : public ::testing::Test {
protected:
  DsdFixture() : mem_(8192, 0), engine_(mem_, counters_, timing_, cycles_) {}

  Dsd alloc(const std::string& name, std::vector<f32> values) {
    const MemSpan span = mem_.alloc_f32(name, static_cast<u32>(values.size()));
    for (u32 i = 0; i < span.length; ++i)
      mem_.store(span.offset_words + i, values[i]);
    return dsd(span);
  }

  std::vector<f32> read(Dsd d) {
    std::vector<f32> out(d.length);
    for (u32 i = 0; i < d.length; ++i)
      out[i] = mem_.load(static_cast<u32>(d.offset + static_cast<i64>(i) * d.stride));
    return out;
  }

  PeMemory mem_;
  OpCounters counters_;
  TimingParams timing_;
  f64 cycles_ = 0;
  DsdEngine engine_;
};

TEST_F(DsdFixture, ElementwiseOpsComputeCorrectly) {
  const Dsd a = alloc("a", {1, 2, 3, 4});
  const Dsd b = alloc("b", {10, 20, 30, 40});
  const Dsd out = alloc("out", {0, 0, 0, 0});

  engine_.fadds(out, a, b);
  EXPECT_EQ(read(out), (std::vector<f32>{11, 22, 33, 44}));
  engine_.fsubs(out, b, a);
  EXPECT_EQ(read(out), (std::vector<f32>{9, 18, 27, 36}));
  engine_.fmuls(out, a, b);
  EXPECT_EQ(read(out), (std::vector<f32>{10, 40, 90, 160}));
  engine_.fnegs(out, a);
  EXPECT_EQ(read(out), (std::vector<f32>{-1, -2, -3, -4}));
  engine_.fmovs(out, b);
  EXPECT_EQ(read(out), (std::vector<f32>{10, 20, 30, 40}));
  engine_.fmovs_imm(out, 7.0f);
  EXPECT_EQ(read(out), (std::vector<f32>{7, 7, 7, 7}));
  engine_.fmuls_imm(out, a, 3.0f);
  EXPECT_EQ(read(out), (std::vector<f32>{3, 6, 9, 12}));
}

TEST_F(DsdFixture, FmaVariants) {
  const Dsd acc = alloc("acc", {1, 1, 1});
  const Dsd a = alloc("a", {2, 3, 4});
  const Dsd b = alloc("b", {10, 10, 10});
  const Dsd out = alloc("out", {0, 0, 0});
  engine_.fmacs(out, acc, a, b);
  EXPECT_EQ(read(out), (std::vector<f32>{21, 31, 41}));
  engine_.fmacs_imm(out, acc, a, -1.0f);
  EXPECT_EQ(read(out), (std::vector<f32>{-1, -2, -3}));
}

TEST_F(DsdFixture, DotProduct) {
  const Dsd a = alloc("a", {1, 2, 3});
  const Dsd b = alloc("b", {4, 5, 6});
  EXPECT_FLOAT_EQ(engine_.fdots(a, b), 32.0f);
}

TEST_F(DsdFixture, StridedAndShiftedViews) {
  const Dsd a = alloc("a", {1, 2, 3, 4, 5, 6});
  // Shifted prefix views, the idiom the z-face flux uses.
  const Dsd lo = a.take(5);        // {1..5}
  const Dsd hi = a.drop(1);        // {2..6}
  const Dsd out = alloc("out", {0, 0, 0, 0, 0});
  engine_.fsubs(out, hi, lo);
  EXPECT_EQ(read(out), (std::vector<f32>{1, 1, 1, 1, 1}));

  // Stride-2 view picks every other element.
  Dsd even{a.offset, 3, 2};
  EXPECT_EQ(read(even), (std::vector<f32>{1, 3, 5}));
}

TEST_F(DsdFixture, AliasedInPlaceUpdateIsElementOrdered) {
  const Dsd a = alloc("a", {1, 2, 3, 4});
  engine_.fmuls_imm(a, a, 2.0f); // in-place scale
  EXPECT_EQ(read(a), (std::vector<f32>{2, 4, 6, 8}));
}

TEST_F(DsdFixture, LengthMismatchThrows) {
  const Dsd a = alloc("a", {1, 2, 3});
  const Dsd b = alloc("b", {1, 2});
  const Dsd out = alloc("out", {0, 0, 0});
  EXPECT_THROW(engine_.fadds(out, a, b), Error);
}

TEST_F(DsdFixture, OpsChargeCyclesAndCounters) {
  const Dsd a = alloc("a", std::vector<f32>(100, 1.0f));
  const Dsd out = alloc("out", std::vector<f32>(100, 0.0f));
  const f64 t0 = cycles_;
  engine_.fmuls(out, a, a);
  EXPECT_GT(cycles_, t0);
  EXPECT_EQ(counters_.count(Opcode::FMUL), 100u);
  EXPECT_EQ(counters_.total_flops(), 100u);
  // FMUL: 2 loads + 1 store per element.
  EXPECT_EQ(counters_.memory_loads(), 200u);
  EXPECT_EQ(counters_.memory_stores(), 100u);
}

TEST_F(DsdFixture, ComputeScaleZeroFreezesTime) {
  timing_.compute_scale = 0.0;
  const Dsd a = alloc("a", std::vector<f32>(64, 2.0f));
  const Dsd out = alloc("out", std::vector<f32>(64, 0.0f));
  const f64 t0 = cycles_;
  engine_.fadds(out, a, a);
  EXPECT_EQ(cycles_, t0); // Table IV's FLOP-free run costs no compute time
  EXPECT_EQ(read(out)[0], 4.0f); // but the values are still computed
}

TEST_F(DsdFixture, ScalarHelpersCountSingleOps) {
  EXPECT_FLOAT_EQ(engine_.fadds_scalar(1.5f, 2.5f), 4.0f);
  EXPECT_FLOAT_EQ(engine_.fmuls_scalar(3.0f, 4.0f), 12.0f);
  EXPECT_EQ(counters_.count(Opcode::FADD), 1u);
  EXPECT_EQ(counters_.count(Opcode::FMUL), 1u);
}

TEST_F(DsdFixture, SubViewBoundsAreChecked) {
  const MemSpan span = mem_.alloc_f32("x", 10);
  EXPECT_NO_THROW(dsd(span, 2, 8));
  EXPECT_THROW(dsd(span, 5, 6), Error);
}

} // namespace
} // namespace fvdf::wse
