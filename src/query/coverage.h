// Predicate coverage over histogram bins (paper Section 5.2).
//
// Conditions are turned into sets of disjoint closed integer intervals in
// the GD code domain. Condition groups on the same column under one AND/OR
// operator are consolidated by interval intersection/union ("delayed
// transformation"), which is exact under the per-bin uniformity model
// instead of a conditional-independence approximation. Coverage β of an
// interval set over each bin follows Eqs. 14–16; coverage bounds β± follow
// Theorem 2 (Eqs. 22–23).
#ifndef PAIRWISEHIST_QUERY_COVERAGE_H_
#define PAIRWISEHIST_QUERY_COVERAGE_H_

#include <cstdint>
#include <vector>

#include "gd/preprocess.h"
#include "hist/histogram.h"
#include "query/ast.h"

namespace pairwisehist {

/// A union of disjoint, sorted, closed integer intervals [lo, hi] in the
/// code domain. ±kIntervalInf stand for unbounded ends.
struct IntervalSet {
  static constexpr double kInf = 1e300;

  /// Intervals as (lo, hi) pairs, lo <= hi, sorted, pairwise disjoint and
  /// non-adjacent (gap of at least one code between consecutive intervals).
  std::vector<std::pair<double, double>> pieces;

  bool Empty() const { return pieces.empty(); }
  bool IsAll() const {
    return pieces.size() == 1 && pieces[0].first <= -kInf &&
           pieces[0].second >= kInf;
  }

  /// Whole-line and empty sets.
  static IntervalSet All();
  static IntervalSet None();
  /// Single interval [lo, hi] (empty set if lo > hi).
  static IntervalSet Of(double lo, double hi);

  /// Set union with coalescing of adjacent integer intervals.
  static IntervalSet Union(const IntervalSet& a, const IntervalSet& b);
  /// Set intersection.
  static IntervalSet Intersect(const IntervalSet& a, const IntervalSet& b);

  /// True if the integer `code` is inside the set.
  bool Contains(double code) const;
};

/// Converts one condition into an interval set in the code domain.
/// String literals resolve through the transform's dictionary; unknown
/// categories yield the empty set (match nothing), which mirrors SQL.
IntervalSet ConditionToIntervals(const Condition& condition,
                                 const ColumnTransform& transform);

/// Per-bin coverage vector with Theorem-2 bounds.
struct Coverage {
  std::vector<double> beta;  ///< estimate (Eqs. 14–16)
  std::vector<double> lo;    ///< lower bound (Eq. 22)
  std::vector<double> hi;    ///< upper bound (Eq. 23)
};

/// Computes coverage of `pred` over every bin of `dim`. `min_points` is M
/// (passing bins have count >= M and get the tight chi-squared bounds).
Coverage ComputeCoverage(const HistogramDim& dim, const IntervalSet& pred,
                         uint64_t min_points,
                         const Chi2CriticalCache& critical);

/// Interval-localized coverage written into caller-owned buffers (the query
/// engine's scratch arena): binary-searches the sorted bin edges so only
/// bins overlapping predicate pieces are visited, and bins fully inside a
/// piece are emitted in bulk without touching their metadata. Produces
/// values identical to ComputeCoverage; bins outside [begin, end) are
/// implicitly zero and their buffer slots are left unwritten.
struct CoverageSpan {
  double* beta = nullptr;  ///< caller buffer, dim.NumBins() doubles
  double* lo = nullptr;
  double* hi = nullptr;
  size_t begin = 0;        ///< touched bin range [begin, end)
  size_t end = 0;
  /// Optional caller buffer (2*max_runs uint32s) for fully-covered run
  /// descriptors: runs[2i], runs[2i+1] delimit a bin range [b, e) whose
  /// every bin is fully covered by edge inspection. Such bins are written
  /// as β = β− = β+ = 1 in bulk instead of accumulating and finishing
  /// per bin, and downstream consumers (Eq. 29 weighting) turn whole runs
  /// into weights straight from the bin counts. Runs are ascending and
  /// disjoint (at most one per predicate piece). Note: zero-count bins
  /// inside a run also read 1 (ComputeCoverage leaves them 0); every
  /// consumer multiplies coverage by the bin count or its cells, so the
  /// difference never reaches a result.
  uint32_t* runs = nullptr;
  size_t max_runs = 0;  ///< capacity of `runs`, in run pairs
  size_t n_runs = 0;    ///< filled by ComputeCoverageInto
  /// Optional caller buffer (2*max_segs uint32s) for candidate segments:
  /// the merged per-piece bin overlap ranges. Bins of [begin, end) outside
  /// every segment have coverage exactly zero, so consumers walking the
  /// span (the per-row cell reductions) can skip the gaps of scattered
  /// multi-piece predicates instead of scanning the whole span. Ascending
  /// and disjoint; at most one per piece.
  uint32_t* segs = nullptr;
  size_t max_segs = 0;
  size_t n_segs = 0;
};
void ComputeCoverageInto(const HistogramDim& dim, const IntervalSet& pred,
                         uint64_t min_points,
                         const Chi2CriticalCache& critical,
                         CoverageSpan* out);

/// O(log k): total bin count over `pred` when every overlapped bin is
/// fully covered, computed from count_prefix span sums (requires
/// HistogramDim::BuildCountPrefix). Returns false when any bin is only
/// partially covered — callers then take the general coverage path. The
/// accumulated total is identical to the general COUNT weighting total
/// (integer additions below 2^53 are exact in double under any grouping).
bool CountFullyCovered(const HistogramDim& dim, const IntervalSet& pred,
                       double* total);

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_QUERY_COVERAGE_H_
