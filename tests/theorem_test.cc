// Monte-Carlo validation of the paper's mathematical results:
//   Theorem 1 (weighted-centre bounds) and Theorem 2 (partial-bin-count /
//   coverage bounds) must hold with probability >= 1 - alpha for bins whose
//   contents actually pass the uniformity test, across many random draws.
// Plus deterministic properties of the coverage machinery.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "hist/uniformity.h"
#include "query/coverage.h"

namespace pairwisehist {
namespace {

// Draws `h` integer points uniformly from [0, span) and returns them
// sorted.
std::vector<double> DrawUniformBin(size_t h, double span, Rng* rng) {
  std::vector<double> v(h);
  for (size_t i = 0; i < h; ++i) {
    v[i] = std::floor(rng->Uniform(0, span));
  }
  std::sort(v.begin(), v.end());
  return v;
}

// One bin over `sorted`, its arrays kept in `arrays`.
HistogramDim BinFromValues(const std::vector<double>& sorted,
                           ArrayHolder* arrays) {
  HistogramDim dim;
  dim.edges =
      arrays->Keep(std::vector<double>{sorted.front(), sorted.back() + 1});
  dim.counts = arrays->Keep(std::vector<uint64_t>{sorted.size()});
  dim.v_min = arrays->Keep(std::vector<double>{sorted.front()});
  dim.v_max = arrays->Keep(std::vector<double>{sorted.back()});
  dim.unique = arrays->Keep(std::vector<uint64_t>{
      CountUniqueSorted(sorted.data(), sorted.data() + sorted.size())});
  return dim;
}

// ---------------------------------------------------------------------------
// Theorem 1: the weighted-centre bound formula (Eq. 4/10 passing case).

TEST(Theorem1Test, BoundsHoldOnUniformDraws) {
  const double alpha = 0.01;
  Chi2CriticalCache crit(alpha);
  Rng rng(201);
  int violations = 0;
  const int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto v = DrawUniformBin(2000, 1000.0, &rng);
    double v_lo = v.front(), v_hi = v.back();
    uint64_t u = CountUniqueSorted(v.data(), v.data() + v.size());
    // Only score draws that pass the test (the theorem's premise).
    UniformityResult test =
        TestUniform(v.data(), v.data() + v.size(), v_lo, v_hi + 1, u, crit);
    if (!test.uniform) continue;

    int s = TerrellScottSubBins(u);
    double delta = (v_hi - v_lo) / s;
    double chi2 = crit.Get(s - 1);
    double spread = delta / 6.0 *
                    std::sqrt(3.0 * chi2 * (double(s) * s - 1.0) / v.size());
    double lo = v_lo + (s - 1) * delta / 2.0 - spread;
    double hi = v_lo + (s + 1) * delta / 2.0 + spread;

    double mean = 0;
    for (double x : v) mean += x;
    mean /= v.size();
    if (mean < lo || mean > hi) ++violations;
  }
  // The bound is conservative by construction; a handful of violations in
  // 400 trials would already be suspicious.
  EXPECT_LE(violations, 8) << violations << " violations in " << kTrials;
}

TEST(Theorem1Test, SpreadShrinksWithMorePoints) {
  Chi2CriticalCache crit(0.001);
  auto spread = [&](double h, uint64_t u) {
    int s = TerrellScottSubBins(u);
    double chi2 = crit.Get(s - 1);
    return 1.0 / 6.0 * std::sqrt(3.0 * chi2 * (double(s) * s - 1.0) / h);
  };
  EXPECT_GT(spread(100, 50), spread(10000, 50));
  EXPECT_GT(spread(1000, 50), spread(100000, 50));
}

// ---------------------------------------------------------------------------
// Theorem 2: coverage bounds on uniform bins.

TEST(Theorem2Test, CoverageBoundsHoldOnUniformDraws) {
  const double alpha = 0.01;
  Chi2CriticalCache crit(alpha);
  Rng rng(202);
  int violations = 0, scored = 0;
  const int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto v = DrawUniformBin(3000, 1200.0, &rng);
    ArrayHolder arrays;
  HistogramDim dim = BinFromValues(v, &arrays);
    UniformityResult test =
        TestUniform(v.data(), v.data() + v.size(), dim.v_min[0],
                    dim.v_max[0] + 1, dim.unique[0], crit);
    if (!test.uniform) continue;

    // A random one-sided predicate.
    double threshold = std::floor(rng.Uniform(dim.v_min[0], dim.v_max[0]));
    IntervalSet pred = IntervalSet::Of(-IntervalSet::kInf, threshold);
    Coverage cov = ComputeCoverage(dim, pred, /*min_points=*/100, crit);
    if (cov.beta[0] <= 0.0 || cov.beta[0] >= 1.0) continue;

    // True coverage.
    size_t satisfied =
        std::upper_bound(v.begin(), v.end(), threshold) - v.begin();
    double true_beta = static_cast<double>(satisfied) / v.size();
    ++scored;
    if (true_beta < cov.lo[0] - 1e-12 || true_beta > cov.hi[0] + 1e-12) {
      ++violations;
    }
  }
  ASSERT_GT(scored, 100);
  // Allow alpha-level violations with slack for discreteness.
  EXPECT_LE(violations, scored / 20)
      << violations << " violations in " << scored;
}

TEST(Theorem2Test, BoundsTightenWithCount) {
  Chi2CriticalCache crit(0.001);
  Rng rng(203);
  auto width_at = [&](size_t h) {
    auto v = DrawUniformBin(h, 1000.0, &rng);
    ArrayHolder arrays;
  HistogramDim dim = BinFromValues(v, &arrays);
    IntervalSet pred = IntervalSet::Of(-IntervalSet::kInf, 499.0);
    Coverage cov = ComputeCoverage(dim, pred, 100, crit);
    return cov.hi[0] - cov.lo[0];
  };
  double w_small = width_at(500);
  double w_large = width_at(50000);
  EXPECT_GT(w_small, w_large);
}

// ---------------------------------------------------------------------------
// Coverage machinery properties over random interval sets.

class CoverageProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverageProperties, OrderAndComplementInvariants) {
  Rng rng(GetParam());
  Chi2CriticalCache crit(0.001);
  auto v = DrawUniformBin(4000, 800.0, &rng);
  ArrayHolder arrays;
  HistogramDim dim = BinFromValues(v, &arrays);

  for (int i = 0; i < 40; ++i) {
    double a = std::floor(rng.Uniform(-50, 850));
    double b = std::floor(rng.Uniform(-50, 850));
    if (a > b) std::swap(a, b);
    IntervalSet s = IntervalSet::Of(a, b);
    Coverage cov = ComputeCoverage(dim, s, 100, crit);
    // Ordering invariant.
    ASSERT_LE(cov.lo[0], cov.beta[0] + 1e-12);
    ASSERT_GE(cov.hi[0], cov.beta[0] - 1e-12);
    ASSERT_GE(cov.lo[0], 0.0);
    ASSERT_LE(cov.hi[0], 1.0);
    // Complement estimate sums to ~1 (within the integer-uniform model's
    // granularity of one code width).
    IntervalSet comp = IntervalSet::Union(
        IntervalSet::Of(-IntervalSet::kInf, a - 1),
        IntervalSet::Of(b + 1, IntervalSet::kInf));
    Coverage ccov = ComputeCoverage(dim, comp, 100, crit);
    ASSERT_NEAR(cov.beta[0] + ccov.beta[0], 1.0, 0.01) << a << "," << b;
  }
}

TEST_P(CoverageProperties, MonotoneInInterval) {
  Rng rng(GetParam() + 1000);
  Chi2CriticalCache crit(0.001);
  auto v = DrawUniformBin(4000, 800.0, &rng);
  ArrayHolder arrays;
  HistogramDim dim = BinFromValues(v, &arrays);
  // Coverage must be monotone non-decreasing as the interval grows.
  double prev = 0;
  for (double hi = 0; hi <= 800; hi += 40) {
    Coverage cov =
        ComputeCoverage(dim, IntervalSet::Of(-IntervalSet::kInf, hi), 100,
                        crit);
    ASSERT_GE(cov.beta[0], prev - 1e-12) << hi;
    prev = cov.beta[0];
  }
  ASSERT_NEAR(prev, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageProperties,
                         ::testing::Values(301, 302, 303, 304, 305));

// ---------------------------------------------------------------------------
// Eq. 10 non-passing case: extremal packing really is extremal.

TEST(PackingBoundTest, AdversarialPackingStaysInside) {
  // Construct the adversarial distribution the bound is derived from:
  // h-u+1 points at the lower extremum, the rest packed µ=1 apart above it.
  const uint64_t h = 60, u = 9;
  std::vector<double> v;
  for (uint64_t i = 0; i < h - u + 1; ++i) v.push_back(0);
  for (uint64_t i = 1; i < u - 1; ++i) v.push_back(static_cast<double>(i));
  v.push_back(100);  // v_max
  double mean = 0;
  for (double x : v) mean += x;
  mean /= v.size();
  // Eq. 10: c- = v- + (u-1)u/(2h).
  double c_lo = 0 + static_cast<double>((u - 1) * u) / (2.0 * h);
  // The adversarial mean exceeds the bound only through the single v_max
  // point; the bound must still sit below the mean.
  EXPECT_LE(c_lo, mean);
}

}  // namespace
}  // namespace pairwisehist
