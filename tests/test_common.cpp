// Unit tests for the common utilities: RNG determinism and distributions,
// streaming statistics, table/CSV rendering, CLI parsing, unit formatting,
// thread pool semantics, image output.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>

#include <sched.h>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/image.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace fvdf {
namespace {

// ---------- Rng ----------

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const f64 u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const f64 u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::array<int, 7> histogram{};
  constexpr int kDraws = 70'000;
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.uniform_index(7)];
  for (int count : histogram) {
    EXPECT_GT(count, kDraws / 7 - 800);
    EXPECT_LT(count, kDraws / 7 + 800);
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50'000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50'000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 2.0), 0.0);
}

TEST(Rng, JumpProducesIndependentStream) {
  Rng a(23);
  Rng b(23);
  b.jump();
  std::set<u64> first;
  for (int i = 0; i < 100; ++i) first.insert(a.next_u64());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(first.count(b.next_u64()), 0u);
}

// ---------- RunningStats ----------

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats stats;
  const std::vector<f64> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (f64 v : values) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 4.0, 1e-12); // population variance
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
  EXPECT_EQ(stats.count(), values.size());
}

TEST(RunningStats, SingleSampleHasZeroStddev) {
  RunningStats stats;
  stats.add(42.0);
  EXPECT_EQ(stats.stddev(), 0.0);
  EXPECT_EQ(stats.mean(), 42.0);
}

TEST(RunningStats, IsNumericallyStableForLargeOffsets) {
  RunningStats stats;
  for (int i = 0; i < 1000; ++i) stats.add(1e9 + (i % 2));
  EXPECT_NEAR(stats.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(stats.stddev(), 0.5, 1e-3);
}

TEST(RunningStats, ClearResets) {
  RunningStats stats;
  stats.add(1.0);
  stats.clear();
  EXPECT_EQ(stats.count(), 0u);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<f64> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50.0), 2.5);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(percentile({1.0}, 101.0), Error);
}

// ---------- StreamingHistogram ----------

TEST(StreamingHistogram, EmptyIsZero) {
  StreamingHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_TRUE(h.buckets().empty());
}

TEST(StreamingHistogram, QuantilesWithinRelativeErrorBound) {
  // 2^-5 relative bucket resolution at the default subbucket_bits.
  StreamingHistogram h;
  for (int i = 1; i <= 10'000; ++i) h.add(static_cast<f64>(i));
  const f64 tol = 1.0 / 32.0;
  EXPECT_NEAR(h.p50(), 5000.0, 5000.0 * tol);
  EXPECT_NEAR(h.p95(), 9500.0, 9500.0 * tol);
  EXPECT_NEAR(h.p99(), 9900.0, 9900.0 * tol);
  // The extremes are exact, not bucket-resolved.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10'000.0);
  EXPECT_DOUBLE_EQ(h.sum(), 10'000.0 * 10'001.0 / 2.0);
}

TEST(StreamingHistogram, MergeEqualsSingleStream) {
  StreamingHistogram a, b, whole;
  for (int i = 1; i <= 1000; ++i) {
    ((i % 2 == 0) ? a : b).add(static_cast<f64>(i * 3));
    whole.add(static_cast<f64>(i * 3));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  // Bucketed populations are identical, so every quantile matches exactly.
  for (const f64 q : {0.1, 0.5, 0.9, 0.95, 0.99})
    EXPECT_DOUBLE_EQ(a.quantile(q), whole.quantile(q));
}

TEST(StreamingHistogram, MergeOrderDoesNotMatter) {
  StreamingHistogram ab, ba, a1, b1;
  for (int i = 0; i < 500; ++i) a1.add(1.5 * i + 1);
  for (int i = 0; i < 500; ++i) b1.add(7.0 * i + 2);
  ab = a1;
  ab.merge(b1);
  ba = b1;
  ba.merge(a1);
  EXPECT_DOUBLE_EQ(ab.p50(), ba.p50());
  EXPECT_DOUBLE_EQ(ab.p99(), ba.p99());
  EXPECT_EQ(ab.buckets().size(), ba.buckets().size());
}

TEST(StreamingHistogram, SubUnitAndZeroValuesLandInFirstBucket) {
  StreamingHistogram h;
  h.add(0.0);
  h.add(0.25);
  h.add(1e-9);
  EXPECT_EQ(h.count(), 3u);
  ASSERT_EQ(h.buckets().size(), 1u);
  EXPECT_EQ(h.buckets()[0].count, 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(StreamingHistogram, ClearResets) {
  StreamingHistogram h;
  h.add(5.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(h.buckets().empty());
}

// ---------- Table ----------

TEST(Table, RendersAlignedColumns) {
  Table table("demo");
  table.set_header({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table table;
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table table;
  table.set_header({"a", "b"});
  table.add_row({"x,y", "quote\"inside"});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, CellAccessorIsBoundsChecked) {
  Table table;
  table.set_header({"a"});
  table.add_row({"v"});
  EXPECT_EQ(table.cell(0, 0), "v");
  EXPECT_THROW(table.cell(1, 0), Error);
}

TEST(TableFormat, FixedAndScientific) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_sci(12345.0, 2), "1.23e+04");
}

// ---------- CLI ----------

TEST(Cli, ParsesAllValueForms) {
  i64 n = 1;
  f64 tol = 0.5;
  std::string name = "x";
  bool flag = false;
  CliParser cli("prog", "test");
  cli.add_i64("n", &n, "count");
  cli.add_f64("tol", &tol, "tolerance");
  cli.add_string("name", &name, "label");
  cli.add_flag("verbose", &flag, "chatty");
  const char* argv[] = {"prog", "--n", "42", "--tol=1e-3", "--name", "abc", "--verbose"};
  ASSERT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(tol, 1e-3);
  EXPECT_EQ(name, "abc");
  EXPECT_TRUE(flag);
}

TEST(Cli, RejectsUnknownOption) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.parse(3, argv), Error);
}

TEST(Cli, RejectsMalformedInteger) {
  i64 n = 0;
  CliParser cli("prog", "test");
  cli.add_i64("n", &n, "count");
  const char* argv[] = {"prog", "--n", "12abc"};
  EXPECT_THROW(cli.parse(3, argv), Error);
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, MissingValueThrows) {
  i64 n = 0;
  CliParser cli("prog", "test");
  cli.add_i64("n", &n, "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(cli.parse(2, argv), Error);
}

// ---------- Units ----------

TEST(Units, FormatsSeconds) {
  EXPECT_EQ(fmt_seconds(0.0), "0 s");
  EXPECT_NE(fmt_seconds(1.5e-9).find("ns"), std::string::npos);
  EXPECT_NE(fmt_seconds(2.5e-6).find("us"), std::string::npos);
  EXPECT_NE(fmt_seconds(3.5e-3).find("ms"), std::string::npos);
  EXPECT_NE(fmt_seconds(4.2).find(" s"), std::string::npos);
}

TEST(Units, FormatsBytesWithBinaryPrefixes) {
  EXPECT_NE(fmt_bytes(48.0 * 1024).find("KiB"), std::string::npos);
  EXPECT_NE(fmt_bytes(3.0 * 1024 * 1024).find("MiB"), std::string::npos);
}

TEST(Units, FormatsFlops) {
  EXPECT_NE(fmt_flops(1.217e15).find("PFLOP/s"), std::string::npos);
  EXPECT_NE(fmt_flops(2.5e9).find("GFLOP/s"), std::string::npos);
}

TEST(Units, FormatsGcells) {
  EXPECT_EQ(fmt_gcells(2855.48e9), "2855.48 Gcell/s");
}

TEST(Units, FormatsPercent) { EXPECT_EQ(fmt_percent(0.6818), "68.18%"); }

TEST(Units, FormatsCounts) {
  EXPECT_EQ(fmt_count(687351000), "687,351,000");
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
}

// ---------- ThreadPool ----------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t begin, std::size_t) {
                                   if (begin == 0) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, UsableCpusIsTheAffinityMaskSize) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_GE(usable_cpus(), 1u);
  EXPECT_EQ(usable_cpus(), static_cast<unsigned>(CPU_COUNT(&set)));
}

// ---------- Image ----------

TEST(Image, ColormapEndpointsAreOrdered) {
  u8 r0, g0, b0, r1, g1, b1;
  colormap(0.0, r0, g0, b0);
  colormap(1.0, r1, g1, b1);
  EXPECT_NE(std::tie(r0, g0, b0), std::tie(r1, g1, b1));
}

TEST(Image, AsciiHeatmapHasRequestedShape) {
  ScalarImage image;
  image.nx = 100;
  image.ny = 50;
  image.values.resize(5000);
  for (i64 y = 0; y < 50; ++y)
    for (i64 x = 0; x < 100; ++x)
      image.values[static_cast<std::size_t>(y * 100 + x)] = static_cast<f64>(x + y);
  const std::string art = ascii_heatmap(image, 40, 10);
  const auto lines = std::count(art.begin(), art.end(), '\n');
  EXPECT_EQ(lines, 10);
}

TEST(Image, ConstantFieldRendersWithoutDivisionByZero) {
  ScalarImage image;
  image.nx = 4;
  image.ny = 4;
  image.values.assign(16, 3.0);
  EXPECT_NO_THROW(ascii_heatmap(image));
}

TEST(Image, WritesPpmAndCsv) {
  ScalarImage image;
  image.nx = 8;
  image.ny = 4;
  image.values.resize(32);
  std::iota(image.values.begin(), image.values.end(), 0.0);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string ppm = (dir / "fvdf_test.ppm").string();
  const std::string csv = (dir / "fvdf_test.csv").string();
  write_ppm(image, ppm);
  write_csv(image, csv);
  std::ifstream ppm_in(ppm, std::ios::binary);
  std::string magic;
  ppm_in >> magic;
  EXPECT_EQ(magic, "P6");
  std::ifstream csv_in(csv);
  std::string header;
  std::getline(csv_in, header);
  EXPECT_EQ(header, "x,y,value");
  std::filesystem::remove(ppm);
  std::filesystem::remove(csv);
}

// ---------- Checkpointing ----------

TEST(Serialize, RoundTripsFieldsExactly) {
  FieldCheckpoint checkpoint;
  checkpoint.nx = 4;
  checkpoint.ny = 3;
  checkpoint.nz = 2;
  Rng rng(9);
  std::vector<f64> pressure(24), saturation(24);
  for (auto& v : pressure) v = rng.uniform(-10, 10);
  for (auto& v : saturation) v = rng.uniform(0, 1);
  checkpoint.fields["pressure"] = pressure;
  checkpoint.fields["saturation"] = saturation;

  const auto path =
      (std::filesystem::temp_directory_path() / "fvdf_ckpt_test.bin").string();
  save_checkpoint(path, checkpoint);
  const auto loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.nx, 4);
  EXPECT_EQ(loaded.ny, 3);
  EXPECT_EQ(loaded.nz, 2);
  ASSERT_EQ(loaded.fields.size(), 2u);
  EXPECT_EQ(loaded.field("pressure"), pressure); // bitwise
  EXPECT_EQ(loaded.field("saturation"), saturation);
  EXPECT_THROW(loaded.field("missing"), Error);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsCorruptAndTruncatedFiles) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto bad = (dir / "fvdf_ckpt_bad.bin").string();
  {
    std::ofstream out(bad, std::ios::binary);
    out << "NOPE this is not a checkpoint";
  }
  EXPECT_THROW(load_checkpoint(bad), Error);

  // Truncate a valid checkpoint mid-field.
  FieldCheckpoint checkpoint;
  checkpoint.fields["x"] = std::vector<f64>(100, 1.0);
  const auto good = (dir / "fvdf_ckpt_good.bin").string();
  save_checkpoint(good, checkpoint);
  const auto truncated = (dir / "fvdf_ckpt_trunc.bin").string();
  {
    std::ifstream in(good, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(load_checkpoint(truncated), Error);
  EXPECT_THROW(load_checkpoint((dir / "fvdf_ckpt_missing.bin").string()), Error);
  std::filesystem::remove(bad);
  std::filesystem::remove(good);
  std::filesystem::remove(truncated);
}

TEST(Serialize, EmptyCheckpointIsValid) {
  const auto path =
      (std::filesystem::temp_directory_path() / "fvdf_ckpt_empty.bin").string();
  save_checkpoint(path, FieldCheckpoint{});
  const auto loaded = load_checkpoint(path);
  EXPECT_TRUE(loaded.fields.empty());
  std::filesystem::remove(path);
}

TEST(Serialize, DetectsSingleBitFlip) {
  // The v2 payload checksum must catch a corruption that still parses
  // structurally — flip one bit in the middle of a field's data and the
  // load must throw with an actionable message, not return wrong values.
  FieldCheckpoint checkpoint;
  checkpoint.nx = 5;
  checkpoint.ny = 5;
  checkpoint.nz = 1;
  checkpoint.fields["pressure"] = std::vector<f64>(25, 3.25);
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "fvdf_ckpt_bitflip.bin").string();
  save_checkpoint(path, checkpoint);

  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x10; // one bit, mid-payload
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    load_checkpoint(path);
    FAIL() << "bit-flipped checkpoint loaded silently";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(Serialize, TruncationMessageNamesThePath) {
  FieldCheckpoint checkpoint;
  checkpoint.fields["x"] = std::vector<f64>(64, 2.0);
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "fvdf_ckpt_truncmsg.bin").string();
  save_checkpoint(path, checkpoint);
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 7));
  }
  try {
    load_checkpoint(path);
    FAIL() << "truncated checkpoint loaded silently";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Serialize, RequireGridRejectsMismatchedShape) {
  FieldCheckpoint checkpoint;
  checkpoint.nx = 8;
  checkpoint.ny = 4;
  checkpoint.nz = 2;
  checkpoint.require_grid(8, 4, 2, "test"); // matching shape passes
  try {
    checkpoint.require_grid(16, 4, 2, "scenario resume");
    FAIL() << "mismatched grid accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    // The message must name both shapes and the consumer so the user can
    // see which checkpoint went where.
    EXPECT_NE(what.find("8x4x2"), std::string::npos) << what;
    EXPECT_NE(what.find("16x4x2"), std::string::npos) << what;
    EXPECT_NE(what.find("scenario resume"), std::string::npos) << what;
  }
}

TEST(Serialize, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors (64-bit).
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
  EXPECT_EQ(hash_hex(0xcbf29ce484222325ull), "cbf29ce484222325");
}

// ---------- Error machinery ----------

TEST(Check, ThrowsWithLocationAndMessage) {
  try {
    FVDF_CHECK_MSG(1 == 2, "math is broken: " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken: 42"), std::string::npos);
  }
}

} // namespace
} // namespace fvdf
