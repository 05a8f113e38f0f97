// Unit tests for src/common: types, RNG, histograms, intervals, formatting,
// record I/O.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/format.hpp"
#include "common/histogram.hpp"
#include "common/interval_set.hpp"
#include "common/record_io.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace pio {
namespace {

using namespace pio::literals;

TEST(SimTimeTest, ArithmeticAndConversions) {
  const SimTime t = 1500_us;
  EXPECT_EQ(t.ns(), 1'500'000);
  EXPECT_DOUBLE_EQ(t.ms(), 1.5);
  EXPECT_EQ((t + 500_us).ms(), 2.0);
  EXPECT_EQ((t - 500_us).ms(), 1.0);
  EXPECT_EQ((t * 2).ns(), 3'000'000);
  EXPECT_EQ((t / 3).ns(), 500'000);
  EXPECT_LT(1_ms, 1_s);
  EXPECT_EQ(SimTime::from_sec(2.5).ns(), 2'500'000'000LL);
}

TEST(BytesTest, ArithmeticAndConversions) {
  const Bytes b = 3_MiB;
  EXPECT_EQ(b.count(), 3ULL * 1024 * 1024);
  EXPECT_DOUBLE_EQ(b.mib(), 3.0);
  EXPECT_EQ((b + 1_MiB).mib(), 4.0);
  EXPECT_EQ((b - 1_MiB).mib(), 2.0);
  EXPECT_EQ((b * 2).mib(), 6.0);
  EXPECT_EQ(b / 3, 1_MiB);
  EXPECT_EQ(5_KiB % 2_KiB, 1_KiB);
}

TEST(BytesTest, SubtractionUnderflowThrows) {
  EXPECT_THROW((void)(1_KiB - 2_KiB), std::underflow_error);
}

TEST(BandwidthTest, TransferTime) {
  const auto bw = Bandwidth::from_mib_per_sec(100.0);
  EXPECT_NEAR(bw.transfer_time(100_MiB).sec(), 1.0, 1e-9);  // piolint: allow(T1) NEAR tolerance
  EXPECT_NEAR(bw.transfer_time(50_MiB).ms(), 500.0, 1e-6);  // piolint: allow(T1) NEAR tolerance
  EXPECT_THROW((void)Bandwidth{0.0}.transfer_time(1_KiB), std::domain_error);
}

TEST(BandwidthTest, ObservedBandwidth) {
  EXPECT_NEAR(observed_bandwidth(100_MiB, 1_s).mib_per_sec(), 100.0, 1e-9);
  EXPECT_EQ(observed_bandwidth(1_MiB, SimTime::zero()).bytes_per_sec(), 0.0);
}

TEST(RngTest, DeterministicByKey) {
  Rng a{42, 7};
  Rng b{42, 7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, StreamsAreIndependent) {
  Rng a{42, 0};
  Rng b{42, 1};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, SubstreamIsDeterministic) {
  const Rng parent{9, 3};
  Rng c1 = parent.substream(5);
  Rng c2 = parent.substream(5);
  Rng c3 = parent.substream(6);
  EXPECT_EQ(c1.next_u64(), c2.next_u64());
  EXPECT_NE(c1.next_u64(), c3.next_u64());
}

TEST(RngTest, UniformRanges) {
  Rng rng{1, 0};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto k = rng.next_below(17);
    EXPECT_LT(k, 17u);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_THROW((void)rng.next_below(0), std::domain_error);
}

TEST(RngTest, DistributionMeansAreSane) {
  Rng rng{2, 0};
  double esum = 0.0;
  double nsum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    esum += rng.exponential(4.0);
    nsum += rng.normal(10.0, 2.0);
  }
  EXPECT_NEAR(esum / kN, 4.0, 0.15);
  EXPECT_NEAR(nsum / kN, 10.0, 0.1);
}

TEST(RngTest, ZipfStaysInRangeAndIsSkewed) {
  Rng rng{3, 0};
  std::uint64_t low = 0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    const auto k = rng.zipf(100, 1.2);
    ASSERT_LT(k, 100u);
    if (k < 10) ++low;
  }
  // With alpha=1.2 the first 10 ranks must dominate.
  EXPECT_GT(low, kN / 2);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng{4, 0};
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
  std::multiset<int> sv(v.begin(), v.end());
  std::multiset<int> sw(w.begin(), w.end());
  EXPECT_EQ(sv, sw);
}

TEST(Log2HistogramTest, BucketPlacement) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.bucket_count(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket_count(1), 2u);  // 2 and 3
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
}

TEST(Log2HistogramTest, MergeAndMean) {
  Log2Histogram a;
  Log2Histogram b;
  a.add(8, 2);
  b.add(16, 2);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 12.0);
}

TEST(Log2HistogramTest, QuantileBucketFloor) {
  Log2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(4);
  for (int i = 0; i < 10; ++i) h.add(1 << 20);
  EXPECT_EQ(h.quantile_bucket_floor(0.5), 4u);
  EXPECT_EQ(h.quantile_bucket_floor(0.99), 1u << 20);
}

TEST(LinearHistogramTest, BinningAndClamping) {
  LinearHistogram h{0.0, 10.0, 5};
  h.add(0.5);
  h.add(9.9);
  h.add(-3.0);  // clamps to first bin
  h.add(42.0);  // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(IntervalSetTest, InsertCoalesces) {
  IntervalSet s;
  s.insert(0, 10);
  s.insert(20, 30);
  s.insert(10, 20);  // bridges the gap
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.total_bytes(), 30u);
  EXPECT_TRUE(s.contains(0, 30));
}

TEST(IntervalSetTest, EraseSplits) {
  IntervalSet s;
  s.insert(0, 100);
  s.erase(40, 60);
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_EQ(s.total_bytes(), 80u);
  EXPECT_TRUE(s.contains(0, 40));
  EXPECT_FALSE(s.contains(39, 41));
  const auto gaps = s.gaps(0, 100);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].lo, 40u);
  EXPECT_EQ(gaps[0].hi, 60u);
}

TEST(IntervalSetTest, CoveredBytes) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(30, 40);
  EXPECT_EQ(s.covered_bytes(0, 50), 20u);
  EXPECT_EQ(s.covered_bytes(15, 35), 10u);
  EXPECT_EQ(s.covered_bytes(20, 30), 0u);
}

/// Property test: IntervalSet agrees with a reference std::set<uint64_t> of
/// individual covered offsets under a random op sequence.
TEST(IntervalSetTest, PropertyAgainstReferenceModel) {
  Rng rng{99, 0};
  IntervalSet s;
  std::set<std::uint64_t> reference;
  constexpr std::uint64_t kSpace = 300;
  for (int step = 0; step < 500; ++step) {
    const std::uint64_t lo = rng.next_below(kSpace);
    const std::uint64_t hi = lo + rng.next_below(40);
    if (rng.chance(0.6)) {
      s.insert(lo, hi);
      for (std::uint64_t x = lo; x < hi; ++x) reference.insert(x);
    } else {
      s.erase(lo, hi);
      for (std::uint64_t x = lo; x < hi; ++x) reference.erase(x);
    }
    ASSERT_EQ(s.total_bytes(), reference.size()) << "step " << step;
    // Spot-check contains on a few random ranges.
    for (int probe = 0; probe < 5; ++probe) {
      const std::uint64_t plo = rng.next_below(kSpace);
      const std::uint64_t phi = plo + rng.next_below(20);
      bool ref_contains = true;
      for (std::uint64_t x = plo; x < phi; ++x) {
        if (!reference.contains(x)) {
          ref_contains = false;
          break;
        }
      }
      ASSERT_EQ(s.contains(plo, phi), ref_contains) << "step " << step;
    }
  }
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(format_bytes(Bytes{17}), "17 B");
  EXPECT_EQ(format_bytes(4_KiB), "4.00 KiB");
  EXPECT_EQ(format_bytes(Bytes{3ULL * 1024 * 1024 * 1024 / 2}), "1.50 GiB");
}

TEST(FormatTest, Time) {
  EXPECT_EQ(format_time(SimTime::from_ns(123)), "123 ns");
  EXPECT_EQ(format_time(12_us), "12.000 us");
  EXPECT_EQ(format_time(SimTime::from_sec(1.5)), "1.500 s");
}

TEST(FormatTest, ParseBytesRoundTrip) {
  EXPECT_EQ(parse_bytes("512"), Bytes{512});
  EXPECT_EQ(parse_bytes("64KiB"), 64_KiB);
  EXPECT_EQ(parse_bytes("4 MiB"), 4_MiB);
  EXPECT_EQ(parse_bytes("1gib"), 1_GiB);
  EXPECT_THROW((void)parse_bytes("abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_bytes("12parsecs"), std::invalid_argument);
  EXPECT_EQ(parse_bytes(" 7 kb "), 7_KiB);
  EXPECT_THROW((void)parse_bytes("4MiB 7GiB"), std::invalid_argument);
  EXPECT_THROW((void)parse_bytes("4 MiB junk"), std::invalid_argument);
  // Sizes past 2^64 - 1 bytes are malformed input, not a std::out_of_range;
  // "48446744073709551615" is the mutant CodecFuzz.ParseBytesThrowsOnlyInvalidArgument
  // first found.
  EXPECT_EQ(parse_bytes("18446744073709551615"), Bytes{UINT64_MAX});
  EXPECT_THROW((void)parse_bytes("18446744073709551616"), std::invalid_argument);
  EXPECT_THROW((void)parse_bytes("48446744073709551615"), std::invalid_argument);
  EXPECT_EQ(parse_bytes("17179869183GiB"), Bytes::from_gib(17179869183));
  EXPECT_THROW((void)parse_bytes("17179869184GiB"), std::invalid_argument);
}

TEST(TextTableTest, AlignsColumns) {
  TextTable t{{"name", "value"}};
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name    value"), std::string::npos);
  EXPECT_NE(s.find("longer  22"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(RecordTest, JsonEscaping) {
  Record r{{"k", std::string("a\"b\nc")}};
  EXPECT_EQ(r.to_json_line(), R"({"k":"a\"b\nc"})");
}

TEST(RecordTest, SetOverwritesInPlace) {
  Record r{{"a", std::int64_t{1}}, {"b", std::int64_t{2}}};
  r.set("a", std::int64_t{5});
  EXPECT_EQ(std::get<std::int64_t>(r.at("a")), 5);
  EXPECT_EQ(r.fields().size(), 2u);
  EXPECT_THROW((void)r.at("zzz"), std::out_of_range);
}

TEST(CsvWriterTest, HeaderFromFirstRecord) {
  std::ostringstream out;
  CsvWriter w{out};
  w.write(Record{{"a", std::int64_t{1}}, {"b", std::string("x,y")}});
  w.write(Record{{"a", std::int64_t{2}}, {"b", std::string("plain")}});
  EXPECT_EQ(out.str(), "a,b\n1,\"x,y\"\n2,plain\n");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok{7};
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  Result<int> err{Error{3, "nope"}};
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, 3);
  EXPECT_EQ(err.value_or(-1), -1);
  EXPECT_THROW((void)err.value(), std::runtime_error);
}

}  // namespace
}  // namespace pio
