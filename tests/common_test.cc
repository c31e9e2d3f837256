// Unit tests for the common substrate: Status/StatusOr, bit I/O, Golomb
// coding, statistical special functions, RNG determinism, serialization,
// and the read-only VecView array cell.
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitio.h"
#include "common/golomb.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/vec_view.h"

namespace pairwisehist {
namespace {

// ---------------------------------------------------------------------------
// Status / StatusOr

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "invalid-argument: bad input");
}

TEST(StatusTest, AllCodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "not-found");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "data-loss");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnsupported), "unsupported");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

StatusOr<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  PH_ASSIGN_OR_RETURN(int half, HalveEven(x));
  *out = half;
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(UseAssignOrReturn(7, &out).ok());
}

// ---------------------------------------------------------------------------
// Bit I/O

TEST(BitIoTest, RoundTripSingleBits) {
  BitWriter w;
  for (int i = 0; i < 13; ++i) w.WriteBit(i % 3 == 0);
  auto bytes = w.Finish();
  BitReader r(bytes);
  for (int i = 0; i < 13; ++i) {
    auto bit = r.ReadBits(1);
    ASSERT_TRUE(bit.ok());
    EXPECT_EQ(bit.value(), i % 3 == 0 ? 1u : 0u) << i;
  }
}

TEST(BitIoTest, RoundTripMultiBitFields) {
  BitWriter w;
  w.WriteBits(0b101, 3);
  w.WriteBits(0xDEADBEEF, 32);
  w.WriteBits(1, 1);
  w.WriteBits(0x123456789ABCDEFull, 60);
  auto bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_EQ(r.ReadBits(3).value(), 0b101u);
  EXPECT_EQ(r.ReadBits(32).value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadBits(1).value(), 1u);
  EXPECT_EQ(r.ReadBits(60).value(), 0x123456789ABCDEFull);
}

TEST(BitIoTest, ValueMaskedToWidth) {
  BitWriter w;
  w.WriteBits(0xFF, 4);  // only low 4 bits survive
  auto bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_EQ(r.ReadBits(4).value(), 0xFu);
}

TEST(BitIoTest, UnaryRoundTrip) {
  BitWriter w;
  for (uint64_t v : {0u, 1u, 5u, 17u}) w.WriteUnary(v);
  auto bytes = w.Finish();
  BitReader r(bytes);
  for (uint64_t v : {0u, 1u, 5u, 17u}) {
    EXPECT_EQ(r.ReadUnary().value(), v);
  }
}

TEST(BitIoTest, ReadPastEndFails) {
  BitWriter w;
  w.WriteBits(3, 2);
  auto bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_TRUE(r.ReadBits(8).ok());  // padded byte is readable
  EXPECT_FALSE(r.ReadBits(1).ok());
}

TEST(BitIoTest, SkipBoundsChecked) {
  std::vector<uint8_t> data{0xAB};
  BitReader r(data);
  EXPECT_TRUE(r.Skip(8).ok());
  EXPECT_FALSE(r.Skip(1).ok());
}

TEST(BitIoTest, BitCountTracksWrites) {
  BitWriter w;
  EXPECT_EQ(w.bit_count(), 0u);
  w.WriteBits(1, 5);
  EXPECT_EQ(w.bit_count(), 5u);
  w.WriteUnary(2);  // 3 bits
  EXPECT_EQ(w.bit_count(), 8u);
}

// ---------------------------------------------------------------------------
// Golomb coding

class GolombRoundTrip
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(GolombRoundTrip, EncodesAndDecodes) {
  auto [value, m] = GetParam();
  BitWriter w;
  GolombEncode(value, m, &w);
  EXPECT_EQ(w.bit_count(), GolombCodeLengthBits(value, m));
  auto bytes = w.Finish();
  BitReader r(bytes);
  auto decoded = GolombDecode(m, &r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), value);
}

INSTANTIATE_TEST_SUITE_P(
    Values, GolombRoundTrip,
    ::testing::Combine(::testing::Values(0ull, 1ull, 2ull, 7ull, 63ull,
                                         100ull, 1023ull, 65536ull),
                       ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull,
                                         64ull)));

TEST(GolombTest, SequenceRoundTrip) {
  BitWriter w;
  std::vector<uint64_t> values{0, 3, 9, 1, 0, 42, 7, 128};
  for (uint64_t v : values) GolombEncode(v, 5, &w);
  auto bytes = w.Finish();
  BitReader r(bytes);
  for (uint64_t v : values) {
    EXPECT_EQ(GolombDecode(5, &r).value(), v);
  }
}

TEST(GolombTest, OptimalMGrowsWithMean) {
  EXPECT_EQ(GolombOptimalM(0.0), 1u);
  EXPECT_EQ(GolombOptimalM(-3.0), 1u);
  uint64_t m_small = GolombOptimalM(1.0);
  uint64_t m_large = GolombOptimalM(100.0);
  EXPECT_LT(m_small, m_large);
  EXPECT_GE(m_small, 1u);
}

TEST(GolombTest, GeometricDataCompactness) {
  // Golomb with near-optimal m should beat m=1 (unary-ish) on geometric
  // data with a large mean.
  Rng rng(11);
  std::vector<uint64_t> data;
  for (int i = 0; i < 500; ++i) {
    data.push_back(static_cast<uint64_t>(rng.Exponential(1.0 / 20.0)));
  }
  double mean = 0;
  for (uint64_t v : data) mean += static_cast<double>(v);
  mean /= data.size();
  uint64_t m_opt = GolombOptimalM(mean);
  uint64_t bits_opt = 0, bits_unary = 0;
  for (uint64_t v : data) {
    bits_opt += GolombCodeLengthBits(v, m_opt);
    bits_unary += GolombCodeLengthBits(v, 1);
  }
  EXPECT_LT(bits_opt, bits_unary);
}

// ---------------------------------------------------------------------------
// Statistical special functions

TEST(StatsTest, RegularizedGammaKnownValues) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-10) << x;
  }
  EXPECT_DOUBLE_EQ(RegularizedGammaP(2.5, 0.0), 0.0);
  EXPECT_NEAR(RegularizedGammaQ(1.0, 2.0), std::exp(-2.0), 1e-10);
}

TEST(StatsTest, Chi2CdfMatchesReferenceValues) {
  // Reference values from standard chi-squared tables.
  EXPECT_NEAR(Chi2Cdf(3.841, 1), 0.95, 1e-3);
  EXPECT_NEAR(Chi2Cdf(5.991, 2), 0.95, 1e-3);
  EXPECT_NEAR(Chi2Cdf(11.070, 5), 0.95, 1e-3);
  EXPECT_NEAR(Chi2Cdf(18.307, 10), 0.95, 1e-3);
  EXPECT_NEAR(Chi2Cdf(6.635, 1), 0.99, 1e-3);
  EXPECT_NEAR(Chi2Cdf(23.209, 10), 0.99, 1e-3);
}

TEST(StatsTest, Chi2QuantileInvertsCdf) {
  for (double df : {1.0, 2.0, 4.0, 9.0, 25.0, 100.0}) {
    for (double p : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
      double x = Chi2Quantile(p, df);
      EXPECT_NEAR(Chi2Cdf(x, df), p, 1e-8)
          << "df=" << df << " p=" << p << " x=" << x;
    }
  }
}

TEST(StatsTest, Chi2CriticalValueMatchesTables) {
  EXPECT_NEAR(Chi2CriticalValue(0.05, 1), 3.841, 1e-3);
  EXPECT_NEAR(Chi2CriticalValue(0.05, 10), 18.307, 1e-3);
  EXPECT_NEAR(Chi2CriticalValue(0.001, 5), 20.515, 1e-3);
}

TEST(StatsTest, Chi2QuantileRejectsBadInput) {
  EXPECT_TRUE(std::isnan(Chi2Quantile(0.0, 3)));
  EXPECT_TRUE(std::isnan(Chi2Quantile(1.0, 3)));
  EXPECT_TRUE(std::isnan(Chi2Quantile(0.5, 0)));
}

TEST(StatsTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.99), 2.326348, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(1e-6), -4.753424, 1e-4);
}

TEST(StatsTest, NormalQuantileInvertsCdf) {
  for (double p = 0.001; p < 1.0; p += 0.0317) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-9) << p;
  }
}

TEST(StatsTest, Chi2UniformStatisticZeroForPerfectUniform) {
  uint64_t counts[4] = {25, 25, 25, 25};
  EXPECT_DOUBLE_EQ(Chi2UniformStatistic(counts, 4, 100), 0.0);
}

TEST(StatsTest, Chi2UniformStatisticLargeForSkew) {
  uint64_t counts[4] = {97, 1, 1, 1};
  EXPECT_GT(Chi2UniformStatistic(counts, 4, 100), 100.0);
}

TEST(StatsTest, TerrellScottSubBins) {
  EXPECT_EQ(TerrellScottSubBins(0), 1);
  EXPECT_EQ(TerrellScottSubBins(1), 1);
  EXPECT_EQ(TerrellScottSubBins(4), 2);       // (8)^(1/3) = 2
  EXPECT_EQ(TerrellScottSubBins(13), 3);      // (26)^(1/3) ≈ 2.96 → 3
  EXPECT_EQ(TerrellScottSubBins(500), 10);    // (1000)^(1/3) = 10
  EXPECT_EQ(TerrellScottSubBins(100000), 59); // (200000)^(1/3) ≈ 58.5
}

// ---------------------------------------------------------------------------
// RNG

TEST(RngTest, DeterministicStreams) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(int64_t{-3}, int64_t{7});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(7);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(8);
  int low = 0, high = 0;
  for (int i = 0; i < 2000; ++i) {
    size_t r = rng.Zipf(100, 1.2);
    if (r < 10) ++low;
    if (r >= 90) ++high;
  }
  EXPECT_GT(low, high * 5);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(9);
  std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0]);
}

TEST(RngTest, ParetoHeavyTail) {
  Rng rng(10);
  double max_v = 0;
  for (int i = 0; i < 10000; ++i) max_v = std::max(max_v, rng.Pareto(1.0, 1.5));
  EXPECT_GT(max_v, 20.0);  // heavy tail produces large outliers
}

// ---------------------------------------------------------------------------
// Serialization

TEST(SerializeTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0x1234);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI64(-42);
  w.WriteF64(3.14159);
  auto buf = w.Finish();
  ByteReader r(buf);
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_EQ(r.ReadU16().value(), 0x1234);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.ReadI64().value(), -42);
  EXPECT_DOUBLE_EQ(r.ReadF64().value(), 3.14159);
  EXPECT_EQ(r.remaining(), 0u);
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, Unsigned) {
  ByteWriter w;
  w.WriteVarint(GetParam());
  auto buf = w.Finish();
  ByteReader r(buf);
  EXPECT_EQ(r.ReadVarint().value(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Values, VarintRoundTrip,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull,
                                           300ull, 16383ull, 16384ull,
                                           uint64_t{1} << 32,
                                           ~uint64_t{0}));

TEST(SerializeTest, SignedVarintRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-64},
                    int64_t{64}, int64_t{-1000000}, int64_t{1} << 40,
                    -(int64_t{1} << 40)}) {
    ByteWriter w;
    w.WriteSignedVarint(v);
    auto buf = w.Finish();
    ByteReader r(buf);
    EXPECT_EQ(r.ReadSignedVarint().value(), v) << v;
  }
}

TEST(SerializeTest, StringAndBytesRoundTrip) {
  ByteWriter w;
  w.WriteString("hello, world");
  w.WriteString("");
  w.WriteBytes({1, 2, 3});
  auto buf = w.Finish();
  ByteReader r(buf);
  EXPECT_EQ(r.ReadString().value(), "hello, world");
  EXPECT_EQ(r.ReadString().value(), "");
  EXPECT_EQ(r.ReadBytes().value(), (std::vector<uint8_t>{1, 2, 3}));
}

TEST(SerializeTest, TruncatedReadsFail) {
  ByteWriter w;
  w.WriteU32(7);
  auto buf = w.Finish();
  buf.resize(2);
  ByteReader r(buf);
  EXPECT_FALSE(r.ReadU32().ok());
}

TEST(SerializeTest, TruncatedStringFails) {
  ByteWriter w;
  w.WriteString("long string content");
  auto buf = w.Finish();
  buf.resize(4);
  ByteReader r(buf);
  EXPECT_FALSE(r.ReadString().ok());
}

// ---------------------------------------------------------------------------
// VecView: written once (assign a vector or bind a view), then read-only.

template <typename V>
concept Resizable = requires(V v) { v.resize(size_t{1}); };
template <typename V>
concept PushBackable = requires(V v) { v.push_back(1.0); };
template <typename V>
concept HasMutData = requires(V v) { v.mut_data(); };
template <typename V>
concept ElementAssignable = requires(V v) { v[0] = 1.0; };

// The concepts hold for std::vector, so their failing on VecView is about
// VecView, not about a malformed requirement.
static_assert(Resizable<std::vector<double>>);
static_assert(PushBackable<std::vector<double>>);
static_assert(ElementAssignable<std::vector<double>>);

static_assert(!Resizable<VecView<double>>);
static_assert(!PushBackable<VecView<double>>);
static_assert(!HasMutData<VecView<double>>);
static_assert(!ElementAssignable<VecView<double>>);
static_assert(
    std::is_same_v<decltype(std::declval<VecView<double>&>().data()),
                   const double*>);
static_assert(
    std::is_same_v<decltype(std::declval<VecView<double>&>().begin()),
                   const double*>);

TEST(VecViewTest, OwnedAndBorrowedReadAlike) {
  const std::vector<double> backing = {1.5, 2.5, 4.0};
  VecView<double> owned;
  owned = std::vector<double>(backing);
  VecView<double> borrowed;
  borrowed.BindView(backing.data(), backing.size());
  EXPECT_FALSE(owned.borrowed());
  EXPECT_TRUE(borrowed.borrowed());
  EXPECT_EQ(borrowed.data(), backing.data());  // no copy
  EXPECT_TRUE(owned == borrowed);
  EXPECT_EQ(borrowed.back(), 4.0);

  VecView<double> copy = borrowed;  // a copy of a borrow is another borrow
  EXPECT_EQ(copy.data(), backing.data());
  borrowed = std::vector<double>{7.0};  // rewriting replaces the borrow
  EXPECT_FALSE(borrowed.borrowed());
  EXPECT_EQ(borrowed.size(), 1u);
  borrowed.clear();
  EXPECT_TRUE(borrowed.empty());
}

}  // namespace
}  // namespace pairwisehist
