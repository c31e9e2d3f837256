// Tests for the PairwiseHist synopsis: Algorithm-1 build invariants,
// Theorem-1 weighted-centre bounds, and the Fig.-6 storage encoding.
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pairwise_hist.h"
#include "datagen/datasets.h"
#include "gd/greedy_gd.h"
#include "query/engine.h"

namespace pairwisehist {
namespace {

PairwiseHistConfig SmallConfig(size_t ns = 0) {
  PairwiseHistConfig cfg;
  cfg.sample_size = ns;
  cfg.min_points_fraction = 0.01;
  return cfg;
}

TEST(PairwiseHistBuildTest, BasicShape) {
  Table t = MakePower(8000, 31);
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig());
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  EXPECT_EQ(ph->num_columns(), t.NumColumns());
  EXPECT_EQ(ph->total_rows(), 8000u);
  EXPECT_EQ(ph->sample_rows(), 8000u);
  EXPECT_DOUBLE_EQ(ph->sampling_ratio(), 1.0);
  EXPECT_EQ(ph->num_pairs(), t.NumColumns() * (t.NumColumns() - 1) / 2);
  // M = 1% of Ns.
  EXPECT_EQ(ph->min_points(), 80u);
}

TEST(PairwiseHistBuildTest, SamplingRatio) {
  Table t = MakePower(10000, 31);
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig(2500));
  ASSERT_TRUE(ph.ok());
  EXPECT_EQ(ph->sample_rows(), 2500u);
  EXPECT_DOUBLE_EQ(ph->sampling_ratio(), 0.25);
  // Histogram counts cover the sample, not the full table.
  uint64_t total = ph->hist1d(1).TotalCount();
  EXPECT_LE(total, 2500u);
}

TEST(PairwiseHistBuildTest, MinPointsOverride) {
  Table t = MakePower(5000, 31);
  PairwiseHistConfig cfg = SmallConfig();
  cfg.min_points_override = 333;
  auto ph = PairwiseHist::BuildFromTable(t, cfg);
  ASSERT_TRUE(ph.ok());
  EXPECT_EQ(ph->min_points(), 333u);
}

TEST(PairwiseHistBuildTest, EmptyTableFails) {
  Table t("empty");
  EXPECT_FALSE(PairwiseHist::BuildFromTable(t, SmallConfig()).ok());
}

TEST(PairwiseHistBuildTest, PassingBinsSatisfyMInvariant) {
  // Any final 1-d bin with count >= M must have passed the uniformity test
  // (the Eq. 10 / Theorem 2 case selector depends on this invariant).
  Table t = MakeFurnace(20000, 32);
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig());
  ASSERT_TRUE(ph.ok());
  Chi2CriticalCache cache(ph->alpha());
  // Verify indirectly: bins at or above M with >1 unique must be "wide
  // enough" to have been tested — we just re-run the test data-free by
  // checking the structural property that no bin has both count >= M and a
  // chi-squared statistic that is wildly non-uniform. Structural proxy:
  // every bin respects v bounds and unique <= count.
  for (size_t c = 0; c < ph->num_columns(); ++c) {
    const HistogramDim& h = ph->hist1d(c);
    for (size_t b = 0; b < h.NumBins(); ++b) {
      ASSERT_LE(h.unique[b], std::max<uint64_t>(h.counts[b], 1)) << c;
      if (h.counts[b] > 0) {
        ASSERT_LE(h.v_min[b], h.v_max[b]);
      }
    }
  }
}

TEST(PairwiseHistBuildTest, PairViewOrientation) {
  Table t = MakePower(5000, 33);
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig());
  ASSERT_TRUE(ph.ok());
  PairView a = ph->GetPair(1, 3);
  PairView b = ph->GetPair(3, 1);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  // The same pair viewed both ways: transposed cells.
  EXPECT_EQ(a.agg_dim().NumBins(), b.pred_dim().NumBins());
  for (size_t i = 0; i < std::min<size_t>(3, a.agg_dim().NumBins()); ++i) {
    for (size_t j = 0; j < std::min<size_t>(3, a.pred_dim().NumBins());
         ++j) {
      EXPECT_EQ(a.Cell(i, j), b.Cell(j, i));
    }
  }
  EXPECT_FALSE(ph->GetPair(1, 1).valid());
}

TEST(PairwiseHistBuildTest, ColumnIndexLookup) {
  Table t = MakePower(2000, 34);
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig());
  ASSERT_TRUE(ph.ok());
  EXPECT_EQ(ph->ColumnIndex("voltage").value(), 3u);
  EXPECT_FALSE(ph->ColumnIndex("nope").ok());
}

TEST(PairwiseHistBuildTest, DeterministicAcrossBuilds) {
  Table t = MakeGas(6000, 35);
  auto a = PairwiseHist::BuildFromTable(t, SmallConfig(3000));
  auto b = PairwiseHist::BuildFromTable(t, SmallConfig(3000));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Serialize(), b->Serialize());
}

// ---------------------------------------------------------------------------
// Theorem 1: weighted-centre bounds.

TEST(CentreBoundsTest, ContainsTrueWeightedCentreUniform) {
  // Property check: for uniform-ish integer data in one bin that passed the
  // test, the true mean of the bin's points must lie within [c-, c+].
  Rng rng(36);
  Table t("t");
  Column x("x", DataType::kInt64, 0);
  double sum = 0;
  const size_t n = 5000;
  for (size_t r = 0; r < n; ++r) {
    double v = std::floor(rng.Uniform(0, 1000));
    sum += v;
    x.Append(v);
  }
  t.AddColumn(std::move(x));
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig());
  ASSERT_TRUE(ph.ok());
  const HistogramDim& h = ph->hist1d(0);
  ASSERT_EQ(h.NumBins(), 1u) << "uniform data should stay a single bin";
  CentreBounds cb = ph->WeightedCentreBounds(h, 0);
  // True mean in the code domain: codes = value - min + 1.
  double true_mean_code = sum / n - t.column(0).Min() + 1;
  EXPECT_LE(cb.lo, true_mean_code);
  EXPECT_GE(cb.hi, true_mean_code);
  // And the bounds are meaningfully tighter than the bin extent.
  EXPECT_GT(cb.lo, h.v_min[0]);
  EXPECT_LT(cb.hi, h.v_max[0]);
}

TEST(CentreBoundsTest, NonPassingBinUsesPackingBound) {
  Table t("t");
  Column x("x", DataType::kInt64, 0);
  // 10 points, 3 unique values: h < M so the packing bound applies.
  for (double v : {0.0, 0.0, 0.0, 0.0, 50.0, 50.0, 100.0, 100.0, 100.0,
                   100.0}) {
    x.Append(v);
  }
  t.AddColumn(std::move(x));
  PairwiseHistConfig cfg = SmallConfig();
  cfg.min_points_override = 100;  // ensure non-passing
  auto ph = PairwiseHist::BuildFromTable(t, cfg);
  ASSERT_TRUE(ph.ok());
  const HistogramDim& h = ph->hist1d(0);
  ASSERT_EQ(h.NumBins(), 1u);
  CentreBounds cb = ph->WeightedCentreBounds(h, 0);
  // Eq. 10 with h=10, u=3, µ=1: shift = 3*2/(2*10) = 0.3 code units.
  EXPECT_NEAR(cb.lo, h.v_min[0] + 0.3, 1e-9);
  EXPECT_NEAR(cb.hi, h.v_max[0] - 0.3, 1e-9);
  // True weighted centre (codes 1..101): mean = (4*1 + 2*51 + 4*101)/10.
  double true_mean_code = (4 * 1.0 + 2 * 51.0 + 4 * 101.0) / 10;
  EXPECT_LE(cb.lo, true_mean_code);
  EXPECT_GE(cb.hi, true_mean_code);
}

TEST(CentreBoundsTest, SingleUniqueCollapses) {
  Table t("t");
  Column x("x", DataType::kInt64, 0);
  for (int i = 0; i < 50; ++i) x.Append(7);
  t.AddColumn(std::move(x));
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig());
  ASSERT_TRUE(ph.ok());
  CentreBounds cb = ph->WeightedCentreBounds(ph->hist1d(0), 0);
  EXPECT_DOUBLE_EQ(cb.lo, cb.hi);
}

TEST(CentreBoundsTest, BoundsAlwaysOrderedAndInsideBin) {
  Table t = MakeFlights(15000, 37);
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig(10000));
  ASSERT_TRUE(ph.ok());
  for (size_t c = 0; c < ph->num_columns(); ++c) {
    const HistogramDim& h = ph->hist1d(c);
    for (size_t b = 0; b < h.NumBins(); ++b) {
      if (h.counts[b] == 0) continue;
      CentreBounds cb = ph->WeightedCentreBounds(h, b);
      ASSERT_LE(cb.lo, cb.hi) << c << "," << b;
      ASSERT_GE(cb.lo, h.v_min[b]) << c << "," << b;
      ASSERT_LE(cb.hi, h.v_max[b]) << c << "," << b;
      // Midpoint lies inside the bounds... not necessarily, but the
      // bounds must overlap the [v-, v+] interval, which they do by the
      // clamps above.
    }
  }
}

// ---------------------------------------------------------------------------
// Storage encoding.

TEST(EncodingTest, SerializeDeserializeRoundTripExact) {
  Table t = MakePower(8000, 38);
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig(4000));
  ASSERT_TRUE(ph.ok());
  std::vector<uint8_t> bytes = ph->Serialize();
  auto back = PairwiseHist::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Deterministic re-serialization: byte-identical.
  EXPECT_EQ(back->Serialize(), bytes);
  // Structural equality.
  EXPECT_EQ(back->num_columns(), ph->num_columns());
  EXPECT_EQ(back->total_rows(), ph->total_rows());
  EXPECT_EQ(back->sample_rows(), ph->sample_rows());
  EXPECT_EQ(back->min_points(), ph->min_points());
  for (size_t c = 0; c < ph->num_columns(); ++c) {
    const HistogramDim& a = ph->hist1d(c);
    const HistogramDim& b = back->hist1d(c);
    ASSERT_EQ(a.edges, b.edges) << c;
    ASSERT_EQ(a.counts, b.counts) << c;
    ASSERT_EQ(a.v_min, b.v_min) << c;
    ASSERT_EQ(a.v_max, b.v_max) << c;
    ASSERT_EQ(a.unique, b.unique) << c;
  }
  for (size_t p = 0; p < ph->num_pairs(); ++p) {
    ASSERT_EQ(ph->pair_at(p).cell_colpre_i, back->pair_at(p).cell_colpre_i)
        << p;
    ASSERT_EQ(ph->pair_at(p).cell_colpre_j, back->pair_at(p).cell_colpre_j)
        << p;
    ASSERT_EQ(ph->pair_at(p).dim_i.edges, back->pair_at(p).dim_i.edges);
    ASSERT_EQ(ph->pair_at(p).dim_j.parent, back->pair_at(p).dim_j.parent);
    ASSERT_EQ(ph->pair_at(p).dim_i.counts, back->pair_at(p).dim_i.counts);
  }
}

TEST(EncodingTest, CorruptMagicRejected) {
  Table t = MakePower(1000, 39);
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig());
  ASSERT_TRUE(ph.ok());
  auto bytes = ph->Serialize();
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(PairwiseHist::Deserialize(bytes).ok());
}

TEST(EncodingTest, TruncationRejectedNotCrashing) {
  Table t = MakePower(2000, 40);
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig());
  ASSERT_TRUE(ph.ok());
  auto bytes = ph->Serialize();
  for (size_t cut : {bytes.size() / 4, bytes.size() / 2,
                     bytes.size() - 3}) {
    std::vector<uint8_t> trunc(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(PairwiseHist::Deserialize(trunc).ok()) << cut;
  }
}

TEST(EncodingTest, SynopsisFarSmallerThanRawData) {
  Table t = MakePower(40000, 41);
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig(20000));
  ASSERT_TRUE(ph.ok());
  size_t synopsis = ph->StorageBytes();
  size_t raw = t.RawSizeBytes();
  EXPECT_LT(synopsis * 10, raw)
      << "synopsis " << synopsis << " vs raw " << raw;
}

TEST(EncodingTest, SmallerMMeansLargerSynopsis) {
  Table t = MakeFlights(20000, 42);
  PairwiseHistConfig coarse = SmallConfig(10000);
  coarse.min_points_override = 1000;
  PairwiseHistConfig fine = SmallConfig(10000);
  fine.min_points_override = 100;
  auto a = PairwiseHist::BuildFromTable(t, coarse);
  auto b = PairwiseHist::BuildFromTable(t, fine);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(a->StorageBytes(), b->StorageBytes());
}

TEST(EncodingTest, QueriesSurviveRoundTrip) {
  Table t = MakePower(10000, 43);
  auto ph = PairwiseHist::BuildFromTable(t, SmallConfig(5000));
  ASSERT_TRUE(ph.ok());
  auto back = PairwiseHist::Deserialize(ph->Serialize());
  ASSERT_TRUE(back.ok());
  AqpEngine e1(&ph.value());
  AqpEngine e2(&back.value());
  const char* sql =
      "SELECT AVG(global_active_power) FROM power WHERE voltage > 240 AND "
      "hour < 12;";
  auto r1 = e1.ExecuteSql(sql);
  auto r2 = e2.ExecuteSql(sql);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1->Scalar().estimate, r2->Scalar().estimate);
  EXPECT_DOUBLE_EQ(r1->Scalar().lower, r2->Scalar().lower);
  EXPECT_DOUBLE_EQ(r1->Scalar().upper, r2->Scalar().upper);
}

TEST(EncodingTest, GdSeededAndPlainBuildsBothSerialize) {
  Table t = MakeGas(8000, 44);
  auto gd = CompressTable(t);
  ASSERT_TRUE(gd.ok());
  auto seeded = PairwiseHist::BuildFromCompressed(*gd, SmallConfig(4000));
  auto plain = PairwiseHist::BuildFromTable(t, SmallConfig(4000));
  ASSERT_TRUE(seeded.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(PairwiseHist::Deserialize(seeded->Serialize()).ok());
  EXPECT_TRUE(PairwiseHist::Deserialize(plain->Serialize()).ok());
}

}  // namespace
}  // namespace pairwisehist
