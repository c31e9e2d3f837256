// Tests for the histogram core: uniformity testing, the column ranks' sort
// and recursive refinement in one and two dimensions.
#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "core/pairwise_hist.h"
#include "gd/preprocess.h"
#include "hist/histogram.h"
#include "hist/uniformity.h"
#include "storage/table.h"
#include "tests/oracle/reference_build.h"

namespace pairwisehist {
namespace {

std::vector<double> UniformValues(size_t n, double lo, double hi,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::floor(rng.Uniform(lo, hi));
  }
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<double> BimodalValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    double centre = rng.Bernoulli(0.5) ? 100.0 : 900.0;
    v[i] = std::floor(std::clamp(rng.Normal(centre, 20.0), 0.0, 1000.0));
  }
  std::sort(v.begin(), v.end());
  return v;
}

TEST(Chi2CriticalCacheTest, MatchesDirectComputation) {
  Chi2CriticalCache cache(0.01);
  EXPECT_NEAR(cache.Get(1), Chi2CriticalValue(0.01, 1), 1e-9);
  EXPECT_NEAR(cache.Get(9), Chi2CriticalValue(0.01, 9), 1e-9);
  // Cached value identical on second call.
  EXPECT_DOUBLE_EQ(cache.Get(9), cache.Get(9));
}

TEST(UniformityTest, UniformDataPasses) {
  Chi2CriticalCache cache(0.001);
  auto v = UniformValues(5000, 0, 1000, 3);
  uint64_t u = CountUniqueSorted(v.data(), v.data() + v.size());
  UniformityResult r =
      TestUniform(v.data(), v.data() + v.size(), 0, 1000, u, cache);
  EXPECT_TRUE(r.uniform);
  EXPECT_GT(r.sub_bins, 2);
}

TEST(UniformityTest, BimodalDataFails) {
  Chi2CriticalCache cache(0.001);
  auto v = BimodalValues(5000, 3);
  uint64_t u = CountUniqueSorted(v.data(), v.data() + v.size());
  UniformityResult r =
      TestUniform(v.data(), v.data() + v.size(), 0, 1001, u, cache);
  EXPECT_FALSE(r.uniform);
  EXPECT_GT(r.Ratio(), 1.0);
}

TEST(UniformityTest, EmptyAndSingletonPass) {
  Chi2CriticalCache cache(0.001);
  std::vector<double> empty;
  EXPECT_TRUE(TestUniform(empty.data(), empty.data(), 0, 10, 0, cache)
                  .uniform);
  std::vector<double> one{5.0};
  EXPECT_TRUE(
      TestUniform(one.data(), one.data() + 1, 0, 10, 1, cache).uniform);
}

TEST(UniformityTest, CountUniqueSorted) {
  std::vector<double> v{1, 1, 2, 3, 3, 3, 9};
  EXPECT_EQ(CountUniqueSorted(v.data(), v.data() + v.size()), 4u);
  EXPECT_EQ(CountUniqueSorted(v.data(), v.data()), 0u);
}

TEST(UniformityTest, LooseAlphaSplitsMore) {
  // A mildly non-uniform distribution: rejected at α=0.1 long before
  // α=0.0001 (higher α ⇒ lower critical value ⇒ easier rejection).
  Rng rng(5);
  std::vector<double> v(3000);
  for (auto& x : v) {
    x = std::floor(1000.0 * std::pow(rng.Uniform(), 1.3));
  }
  std::sort(v.begin(), v.end());
  uint64_t u = CountUniqueSorted(v.data(), v.data() + v.size());
  Chi2CriticalCache strict(0.0000001), loose(0.1);
  UniformityResult rs =
      TestUniform(v.data(), v.data() + v.size(), 0, 1000, u, strict);
  UniformityResult rl =
      TestUniform(v.data(), v.data() + v.size(), 0, 1000, u, loose);
  EXPECT_LT(rl.critical, rs.critical);
  // The loose test must reject at least as often as the strict one.
  EXPECT_TRUE(rs.uniform || !rl.uniform);
}

// ---------------------------------------------------------------------------
// 1-d refinement

RefineConfig TestConfig(uint64_t m = 100) {
  RefineConfig c;
  c.min_points = m;
  c.alpha = 0.001;
  return c;
}

TEST(Refine1DTest, StructuralInvariants) {
  Chi2CriticalCache cache(0.001);
  auto v = BimodalValues(20000, 7);
  HistogramDim h = BuildHistogram1D(v, {0.0, 1001.0}, TestConfig(200),
                                    cache);
  ASSERT_GE(h.NumBins(), 2u) << "bimodal data must split";
  // Edges ascending, arrays parallel.
  ASSERT_EQ(h.edges.size(), h.NumBins() + 1);
  ASSERT_EQ(h.v_min.size(), h.NumBins());
  ASSERT_EQ(h.v_max.size(), h.NumBins());
  ASSERT_EQ(h.unique.size(), h.NumBins());
  for (size_t t = 1; t < h.edges.size(); ++t) {
    ASSERT_LT(h.edges[t - 1], h.edges[t]);
  }
  // Counts sum to n; metadata inside edges.
  EXPECT_EQ(h.TotalCount(), v.size());
  for (size_t t = 0; t < h.NumBins(); ++t) {
    if (h.counts[t] == 0) continue;
    ASSERT_GE(h.v_min[t], h.edges[t]) << t;
    ASSERT_LT(h.v_max[t], h.edges[t + 1] + 1e-9) << t;
    ASSERT_LE(h.v_min[t], h.v_max[t]);
    ASSERT_GE(h.unique[t], 1u);
    ASSERT_LE(h.unique[t], h.counts[t]);
  }
}

TEST(Refine1DTest, UniformDataStaysOneBin) {
  Chi2CriticalCache cache(0.001);
  auto v = UniformValues(20000, 0, 1000, 8);
  HistogramDim h =
      BuildHistogram1D(v, {0.0, 1001.0}, TestConfig(200), cache);
  EXPECT_EQ(h.NumBins(), 1u);
}

TEST(Refine1DTest, SmallBinsNotSplit) {
  Chi2CriticalCache cache(0.001);
  auto v = BimodalValues(50, 9);  // fewer than M points
  HistogramDim h =
      BuildHistogram1D(v, {0.0, 1001.0}, TestConfig(100), cache);
  EXPECT_EQ(h.NumBins(), 1u);
}

TEST(Refine1DTest, SingleUniqueValueBin) {
  Chi2CriticalCache cache(0.001);
  std::vector<double> v(500, 42.0);
  HistogramDim h = BuildHistogram1D(v, {0.0, 100.0}, TestConfig(100), cache);
  EXPECT_EQ(h.NumBins(), 1u);
  EXPECT_EQ(h.unique[0], 1u);
  EXPECT_DOUBLE_EQ(h.v_min[0], 42.0);
  EXPECT_DOUBLE_EQ(h.v_max[0], 42.0);
  EXPECT_DOUBLE_EQ(h.Midpoint(0), 42.0);
}

TEST(Refine1DTest, SeededEdgesPreserved) {
  Chi2CriticalCache cache(0.001);
  auto v = UniformValues(5000, 0, 1000, 10);
  HistogramDim h = BuildHistogram1D(v, {0.0, 250.0, 500.0, 750.0, 1001.0},
                                    TestConfig(100), cache);
  // Uniform data: no splits beyond the seeds.
  EXPECT_EQ(h.NumBins(), 4u);
  EXPECT_DOUBLE_EQ(h.edges[1], 250.0);
  EXPECT_DOUBLE_EQ(h.edges[2], 500.0);
}

TEST(Refine1DTest, EmptySeedBinKeptWithZeroCount) {
  Chi2CriticalCache cache(0.001);
  std::vector<double> v{10, 11, 12, 13, 14};
  HistogramDim h = BuildHistogram1D(v, {0.0, 5.0, 20.0}, TestConfig(100),
                                    cache);
  ASSERT_EQ(h.NumBins(), 2u);
  EXPECT_EQ(h.counts[0], 0u);
  EXPECT_EQ(h.unique[0], 0u);
  EXPECT_EQ(h.counts[1], 5u);
}

TEST(Refine1DTest, BinIndexLookup) {
  Chi2CriticalCache cache(0.001);
  auto v = UniformValues(1000, 0, 100, 11);
  HistogramDim h = BuildHistogram1D(v, {0.0, 50.0, 101.0}, TestConfig(100),
                                    cache);
  EXPECT_EQ(h.BinIndex(0.0), 0u);
  EXPECT_EQ(h.BinIndex(49.9), 0u);
  EXPECT_EQ(h.BinIndex(50.0), 1u);
  EXPECT_EQ(h.BinIndex(100.0), 1u);
  EXPECT_EQ(h.BinIndex(-5.0), 0u);    // clamped
  EXPECT_EQ(h.BinIndex(5000.0), 1u);  // clamped
}

TEST(Refine1DTest, EdgesOnHalfIntegerGrid) {
  Chi2CriticalCache cache(0.001);
  auto v = BimodalValues(30000, 12);
  HistogramDim h =
      BuildHistogram1D(v, {0.0, 1001.0}, TestConfig(300), cache);
  for (double e : h.edges) {
    double doubled = e * 2.0;
    EXPECT_NEAR(doubled, std::round(doubled), 1e-9) << e;
  }
}

TEST(Refine1DTest, DeeperSplitsWithSmallerM) {
  Chi2CriticalCache cache(0.001);
  auto v = BimodalValues(30000, 13);
  HistogramDim coarse =
      BuildHistogram1D(v, {0.0, 1001.0}, TestConfig(5000), cache);
  HistogramDim fine =
      BuildHistogram1D(v, {0.0, 1001.0}, TestConfig(100), cache);
  EXPECT_GE(fine.NumBins(), coarse.NumBins());
}

// ---------------------------------------------------------------------------
// Column ranks

// The order a comparison sort of (value, position) pairs over the non-null
// values gives: ascending value, ties by position.
std::vector<uint32_t> ComparisonOrder(const std::vector<double>& values) {
  std::vector<std::pair<double, uint32_t>> keyed;
  for (size_t p = 0; p < values.size(); ++p) {
    if (!std::isnan(values[p])) {
      keyed.emplace_back(values[p], static_cast<uint32_t>(p));
    }
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint32_t> order;
  for (const auto& [v, p] : keyed) order.push_back(p);
  return order;
}

void ExpectComparisonOrder(const std::vector<double>& values) {
  EXPECT_EQ(ColumnRanks(values).order, ComparisonOrder(values));
}

TEST(ColumnRanksTest, EmptyAndNulls) {
  const double nan = std::nan("");
  ExpectComparisonOrder({});
  ExpectComparisonOrder({nan, nan, nan});
  ExpectComparisonOrder({3.0, nan, 1.0, nan, 2.0, 1.0, nan, 0.0, nan});
}

TEST(ColumnRanksTest, SingleValue) {
  ExpectComparisonOrder({7.0});
  ExpectComparisonOrder(std::vector<double>(1000, 42.0));
}

TEST(ColumnRanksTest, HeavyTiesKeepPositionOrder) {
  Rng rng(31);
  std::vector<double> v(20000);
  for (double& x : v) x = std::floor(rng.Uniform(0, 8));
  ExpectComparisonOrder(v);
}

TEST(ColumnRanksTest, HalfIntegers) {
  Rng rng(32);
  std::vector<double> v(20000);
  for (double& x : v) x = std::floor(rng.Uniform(0, 2000)) / 2.0;
  ExpectComparisonOrder(v);
}

TEST(ColumnRanksTest, NegativesAndSignedZeros) {
  Rng rng(33);
  std::vector<double> v(20000);
  for (double& x : v) {
    const int kind = static_cast<int>(rng.UniformInt(uint64_t{4}));
    x = kind == 0 ? -0.0 : kind == 1 ? 0.0 : -std::floor(rng.Uniform(0, 500));
  }
  ExpectComparisonOrder(v);
}

TEST(ColumnRanksTest, OneBitKeySpan) {
  // 2 and 3 share sign, exponent and all mantissa bits but one.
  static_assert(std::popcount(std::bit_cast<uint64_t>(2.0) ^
                              std::bit_cast<uint64_t>(3.0)) == 1);
  Rng rng(34);
  std::vector<double> v(5000);
  for (double& x : v) x = rng.Bernoulli(0.5) ? 2.0 : 3.0;
  ExpectComparisonOrder(v);
}

TEST(ColumnRanksTest, WideKeySpan) {
  // Integers up to 2^40 next to small ones: the keys differ in more than
  // 33 bits, so the sort takes several passes.
  Rng rng(35);
  std::vector<double> v(20000);
  for (double& x : v) {
    x = std::floor(rng.Bernoulli(0.5) ? rng.Uniform(0, 1099511627776.0)
                                      : rng.Uniform(0, 100));
  }
  ExpectComparisonOrder(v);
}

TEST(ColumnRanksTest, NegativesWithPositivesSpanAllBits) {
  // Fractional values of both signs differ from the sign bit down to the
  // lowest mantissa bit, so every one of the 64 key bits is sorted on.
  Rng rng(36);
  std::vector<double> v(20000);
  for (double& x : v) x = rng.Uniform(-1e6, 1e6);
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double big = std::numeric_limits<double>::max();
  v.insert(v.end(), {inf, -inf, tiny, -tiny, big, -big, 0.0, -0.0, v[0]});
  ExpectComparisonOrder(v);
}

// ---------------------------------------------------------------------------
// 2-d refinement

// The pair build over explicit paired values (no nulls): `xi[r]` and
// `xj[r]` are row r's two codes.
PairHistogram BuildPairFromValues(const std::vector<double>& xi,
                                  const std::vector<double>& xj,
                                  const HistogramDim& h1_i,
                                  const HistogramDim& h1_j,
                                  const RefineConfig& config,
                                  const Chi2CriticalCache& critical) {
  ColumnRanks ri(xi), rj(xj);
  ri.AssignBins(h1_i);
  rj.AssignBins(h1_j);
  return BuildPairHistogram(ri, rj, 0, 1, h1_i, h1_j, config, critical);
}

TEST(Refine2DTest, CorrelatedDataRefinesCells) {
  // xi is marginally uniform, but conditionally concentrated given xj's
  // regime — RefineBin2D tests marginal uniformity inside each initial
  // cell, and the cells here are conditionally skewed, so the pair
  // histogram must gain edges. (A jointly-correlated distribution with
  // uniform conditional marginals would legitimately stay unsplit; that is
  // a property of the paper's per-dimension test.)
  Rng rng(14);
  size_t n = 30000;
  std::vector<double> xi(n), xj(n);
  for (size_t r = 0; r < n; ++r) {
    double u = rng.Uniform(0, 1000);
    xi[r] = std::floor(u);
    xj[r] = std::floor(u < 500 ? rng.Uniform(0, 100.0)
                               : rng.Uniform(900.0, 1000.0));
  }
  Chi2CriticalCache cache(0.001);
  std::vector<double> si = xi, sj = xj;
  std::sort(si.begin(), si.end());
  std::sort(sj.begin(), sj.end());
  HistogramDim h1i =
      BuildHistogram1D(si, {0.0, 1000.0}, TestConfig(500), cache);
  HistogramDim h1j =
      BuildHistogram1D(sj, {0.0, 1000.0}, TestConfig(500), cache);
  PairHistogram ph =
      BuildPairFromValues(xi, xj, h1i, h1j, TestConfig(500), cache);
  // Strong dependence ⇒ 2-d refinement must add edges beyond the 1-d grid.
  EXPECT_GT(ph.dim_i.NumBins() + ph.dim_j.NumBins(),
            h1i.NumBins() + h1j.NumBins());
  // Cell counts sum to n.
  uint64_t total = 0;
  for (uint64_t c : ph.cells) total += c;
  EXPECT_EQ(total, n);
  // Marginals match dim counts.
  for (size_t ti = 0; ti < ph.dim_i.NumBins(); ++ti) {
    uint64_t row_sum = 0;
    for (size_t tj = 0; tj < ph.dim_j.NumBins(); ++tj) {
      row_sum += ph.CellCount(ti, tj);
    }
    ASSERT_EQ(row_sum, ph.dim_i.counts[ti]) << ti;
  }
}

TEST(Refine2DTest, ParentMappingConsistent) {
  Rng rng(15);
  size_t n = 10000;
  std::vector<double> xi(n), xj(n);
  for (size_t r = 0; r < n; ++r) {
    xi[r] = std::floor(rng.Uniform(0, 500));
    xj[r] = std::floor(xi[r] * 2 + rng.Uniform(0, 50));
  }
  Chi2CriticalCache cache(0.001);
  std::vector<double> si = xi, sj = xj;
  std::sort(si.begin(), si.end());
  std::sort(sj.begin(), sj.end());
  HistogramDim h1i = BuildHistogram1D(si, {0.0, 501.0}, TestConfig(300),
                                      cache);
  HistogramDim h1j = BuildHistogram1D(sj, {0.0, 1051.0}, TestConfig(300),
                                      cache);
  PairHistogram ph =
      BuildPairFromValues(xi, xj, h1i, h1j, TestConfig(300), cache);
  ASSERT_EQ(ph.dim_i.parent.size(), ph.dim_i.NumBins());
  for (size_t t = 0; t < ph.dim_i.NumBins(); ++t) {
    size_t parent = ph.dim_i.parent[t];
    ASSERT_LT(parent, h1i.NumBins());
    // Refined bin lies inside its parent 1-d bin.
    ASSERT_GE(ph.dim_i.edges[t], h1i.edges[parent] - 1e-9);
    ASSERT_LE(ph.dim_i.edges[t + 1], h1i.edges[parent + 1] + 1e-9);
  }
}

TEST(Refine2DTest, IndependentUniformDataAddsNoEdges) {
  Rng rng(16);
  size_t n = 20000;
  std::vector<double> xi(n), xj(n);
  for (size_t r = 0; r < n; ++r) {
    xi[r] = std::floor(rng.Uniform(0, 800));
    xj[r] = std::floor(rng.Uniform(0, 800));
  }
  Chi2CriticalCache cache(0.001);
  std::vector<double> si = xi, sj = xj;
  std::sort(si.begin(), si.end());
  std::sort(sj.begin(), sj.end());
  HistogramDim h1i = BuildHistogram1D(si, {0.0, 801.0}, TestConfig(500),
                                      cache);
  HistogramDim h1j = BuildHistogram1D(sj, {0.0, 801.0}, TestConfig(500),
                                      cache);
  PairHistogram ph =
      BuildPairFromValues(xi, xj, h1i, h1j, TestConfig(500), cache);
  EXPECT_EQ(ph.dim_i.NumBins(), h1i.NumBins());
  EXPECT_EQ(ph.dim_j.NumBins(), h1j.NumBins());
}

TEST(Refine2DTest, EmptyInputProducesEmptyCells) {
  Chi2CriticalCache cache(0.001);
  std::vector<double> empty;
  HistogramDim h1;
  h1.edges = {0.0, 10.0};
  h1.counts = {0};
  h1.v_min = {0.0};
  h1.v_max = {10.0};
  h1.unique = {0};
  PairHistogram ph =
      BuildPairFromValues(empty, empty, h1, h1, TestConfig(100), cache);
  EXPECT_EQ(ph.cells.size(), 1u);
  EXPECT_EQ(ph.cells[0], 0u);
}

// ---- Rank-path edge cases, each against the reference builder -----------
//
// The library builds pairs from shared per-column ranks; the oracle sorts
// per pair and per refinement node and bins with BinIndex. Both must
// produce identical arrays (and so identical bytes).

void ExpectSameDim(const HistogramDim& a, const HistogramDim& b) {
  EXPECT_TRUE(a.edges == b.edges);
  EXPECT_TRUE(a.counts == b.counts);
  EXPECT_TRUE(a.v_min == b.v_min);
  EXPECT_TRUE(a.v_max == b.v_max);
  EXPECT_TRUE(a.unique == b.unique);
  EXPECT_TRUE(a.parent == b.parent);
}

// Builds the pair both ways over 1-d histograms fitted on `initial` edges
// and expects identical arrays; returns the library's pair.
PairHistogram ExpectPairMatchesOracle(const std::vector<double>& xi,
                                      const std::vector<double>& xj,
                                      const std::vector<double>& initial_i,
                                      const std::vector<double>& initial_j,
                                      uint64_t min_points) {
  Chi2CriticalCache cache(0.001);
  std::vector<double> si = xi, sj = xj;
  std::sort(si.begin(), si.end());
  std::sort(sj.begin(), sj.end());
  HistogramDim h1i =
      BuildHistogram1D(si, initial_i, TestConfig(min_points), cache);
  HistogramDim h1j =
      BuildHistogram1D(sj, initial_j, TestConfig(min_points), cache);
  PairHistogram ph =
      BuildPairFromValues(xi, xj, h1i, h1j, TestConfig(min_points), cache);
  PairHistogram ref = oracle::ReferenceBuildPairHistogram(
      xi, xj, 0, 1, h1i, h1j, TestConfig(min_points), cache);
  ExpectSameDim(ph.dim_i, ref.dim_i);
  ExpectSameDim(ph.dim_j, ref.dim_j);
  EXPECT_TRUE(ph.cells == ref.cells);
  return ph;
}

// Whole-synopsis build both ways, serial and parallel: identical bytes.
void ExpectBuildMatchesOracle(const Table& table, PairwiseHistConfig cfg) {
  auto pre = Preprocess(table);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  for (unsigned threads : {1u, 0u}) {
    cfg.build_threads = threads;
    auto ph = PairwiseHist::Build(*pre, nullptr, cfg);
    auto ref = oracle::ReferenceBuild::Build(*pre, nullptr, cfg);
    ASSERT_TRUE(ph.ok()) << ph.status().ToString();
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(ph->Serialize(), ref->Serialize()) << "threads " << threads;
  }
}

// A table of `cols` dependent real columns; `null_every[c]` > 0 makes every
// that-many-th row of column c null, and -1 makes the whole column null.
Table SkewedTable(size_t n, const std::vector<int>& null_every,
                  uint64_t seed) {
  Rng rng(seed);
  Table t("edge");
  std::vector<Column> cols;
  for (size_t c = 0; c < null_every.size(); ++c) {
    cols.emplace_back("c" + std::to_string(c), DataType::kInt64, 0);
  }
  for (size_t r = 0; r < n; ++r) {
    const double u = rng.Uniform(0, 1000);
    for (size_t c = 0; c < cols.size(); ++c) {
      const int every = null_every[c];
      if (every < 0 || (every > 0 && r % every == 0)) {
        cols[c].AppendNull();
        continue;
      }
      double v = c % 2 == 0 ? u : (u < 500 ? rng.Uniform(0, 100)
                                            : rng.Uniform(900, 1000));
      cols[c].Append(std::floor(v + 7.0 * c));
    }
  }
  for (Column& col : cols) t.AddColumn(std::move(col));
  return t;
}

PairwiseHistConfig SmallConfig(uint64_t min_points) {
  PairwiseHistConfig cfg;
  cfg.sample_size = 0;
  cfg.min_points_override = min_points;
  return cfg;
}

TEST(RankPathTest, NullsOnOneSideOfAPairOnly) {
  // Column 1 is null in every third row, columns 0 and 2 never: pair (1, 0)
  // and (2, 1) drop those rows on one side only, pair (2, 0) keeps them.
  ExpectBuildMatchesOracle(SkewedTable(12000, {0, 3, 0}, 21),
                           SmallConfig(200));
}

TEST(RankPathTest, SampledRows) {
  // A sample smaller than the table: the library's sampler must draw the
  // oracle's rows, in the same order. Several seeds make it likely that the
  // first and last rows are drawn at least once.
  const Table table = SkewedTable(12000, {0, 3, 0}, 26);
  PairwiseHistConfig cfg = SmallConfig(100);
  cfg.sample_size = 8000;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    cfg.seed = seed;
    ExpectBuildMatchesOracle(table, cfg);
  }
}

TEST(RankPathTest, AllNullColumn) {
  ExpectBuildMatchesOracle(SkewedTable(6000, {0, -1, 5}, 22),
                           SmallConfig(150));
}

TEST(RankPathTest, MinPointsAtOrAboveRowCount) {
  for (uint64_t m : {4000u, 4001u, 100000u}) {
    ExpectBuildMatchesOracle(SkewedTable(4000, {0, 0, 7}, 23),
                             SmallConfig(m));
  }
}

TEST(RankPathTest, DuplicatesOnOneDAndRefinedEdges) {
  // Half-integer values: refined edges snap to the half-integer grid, so
  // they land exactly on duplicated values, as do the integer 1-d edges.
  Rng rng(24);
  const size_t n = 20000;
  std::vector<double> xi(n), xj(n);
  for (size_t r = 0; r < n; ++r) {
    const double u = std::floor(rng.Uniform(0, 80)) / 2.0;
    xi[r] = rng.Bernoulli(0.3) ? 10.0 : u;
    xj[r] = u < 20 ? std::floor(rng.Uniform(0, 16)) / 2.0
                   : std::floor(rng.Uniform(60, 80)) / 2.0;
    if (rng.Bernoulli(0.2)) xj[r] = 20.0;
  }
  PairHistogram ph = ExpectPairMatchesOracle(
      xi, xj, {0.0, 10.0, 20.0, 30.0, 40.5}, {0.0, 20.0, 40.5}, 300);
  // The test only means something if refinement did split somewhere.
  EXPECT_GT(ph.dim_i.NumBins() + ph.dim_j.NumBins(), 4u + 2u);
}

TEST(RankPathTest, SingleUniqueValue) {
  Rng rng(25);
  const size_t n = 5000;
  std::vector<double> xi(n, 42.0), xj(n);
  for (size_t r = 0; r < n; ++r) xj[r] = std::floor(rng.Uniform(0, 300));
  ExpectPairMatchesOracle(xi, xj, {42.0, 43.0}, {0.0, 301.0}, 100);
  ExpectPairMatchesOracle(xj, xi, {0.0, 301.0}, {42.0, 43.0}, 100);
  ExpectPairMatchesOracle(xi, xi, {42.0, 43.0}, {42.0, 43.0}, 100);
}

TEST(RankPathTest, EmptyPair) {
  std::vector<double> empty;
  PairHistogram ph =
      ExpectPairMatchesOracle(empty, empty, {0.0, 10.0}, {0.0, 4.0, 9.0}, 100);
  EXPECT_EQ(ph.cells.size(), 2u);
  // Two columns whose non-null rows never overlap: the pair is empty while
  // both 1-d histograms are not.
  Table disjoint("disjoint");
  Column a("a", DataType::kInt64, 0), b("b", DataType::kInt64, 0);
  for (int r = 0; r < 3000; ++r) {
    if (r % 2 == 0) {
      a.Append(r % 97);
      b.AppendNull();
    } else {
      a.AppendNull();
      b.Append(r % 89);
    }
  }
  disjoint.AddColumn(std::move(a));
  disjoint.AddColumn(std::move(b));
  ExpectBuildMatchesOracle(disjoint, SmallConfig(50));
}

}  // namespace
}  // namespace pairwisehist
