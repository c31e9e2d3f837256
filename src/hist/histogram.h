// Refined 1-d and 2-d (pairwise) histograms with per-bin metadata.
//
// Implements Algorithm 1's histogram machinery: recursive hypothesis-test
// refinement (RefineBin1D / RefineBin2D), per-bin metadata (actual min/max,
// unique counts), and the pairwise count matrices. Everything operates in
// the GD pre-processed integer code domain, carried as double (exact for
// codes below 2^53).
#ifndef PAIRWISEHIST_HIST_HISTOGRAM_H_
#define PAIRWISEHIST_HIST_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/vec_view.h"
#include "hist/uniformity.h"

namespace pairwisehist {

/// Refinement parameters (paper notation: M and α).
struct RefineConfig {
  uint64_t min_points = 1000;  ///< M: a bin needs more than M points to split
  double alpha = 0.001;        ///< hypothesis-test significance
  double min_width = 1.0;      ///< never split below the code spacing µ
  int max_depth = 64;          ///< recursion guard
};

/// One dimension of a histogram: k bins delimited by k+1 edges, with the
/// paper's per-bin metadata. For pairwise histograms, `parent` maps each
/// refined bin to the 1-d bin of the same column that contains it.
///
/// Every array is a read-only VecView, written once when the histogram
/// is built or decoded: an owned vector for built/deserialized synopses,
/// a borrowed zero-copy span into the mapped file for PWS3-opened ones
/// (see common/vec_view.h).
struct HistogramDim {
  VecView<double> edges;        ///< k+1 ascending edges, bins [e_t, e_{t+1})
  VecView<uint64_t> counts;     ///< k bin counts (marginal for 2-d)
  VecView<double> v_min;        ///< k actual minimum values (v−)
  VecView<double> v_max;        ///< k actual maximum values (v+)
  VecView<uint64_t> unique;     ///< k unique-value counts (u)
  VecView<uint32_t> parent;     ///< k parent 1-d bin indices (2-d only)
  /// k+1 exclusive prefix sums of `counts` (execution index, not part of
  /// the compact PWS2 encoding but persisted verbatim by PWS3): count over
  /// bins [a, b) is count_prefix[b] - count_prefix[a]. Derived by
  /// BuildCountPrefix.
  VecView<uint64_t> count_prefix;
  /// Per-bin aggregation metadata cache (execution index, persisted only
  /// by PWS3): midpoint (v− + v+)/2 and the Theorem-1 weighted-centre
  /// bounds already clamped to [v−, v+]. Filled by
  /// PairwiseHist::FinishExecIndex (the bounds need M and the chi-squared
  /// cache) so Table-3 aggregation reads flat arrays instead of
  /// recomputing a sqrt per bin per query.
  VecView<double> centre_mid;
  VecView<double> centre_lo;
  VecView<double> centre_hi;

  size_t NumBins() const { return counts.size(); }
  bool HasCentreCache() const { return centre_mid.size() == counts.size(); }

  /// Derives count_prefix from counts.
  void BuildCountPrefix();

  /// Bin midpoint c_t = (v− + v+)/2.
  double Midpoint(size_t t) const { return (v_min[t] + v_max[t]) / 2.0; }

  /// Index of the bin containing `value` (edges[t] <= value < edges[t+1]),
  /// clamped to [0, k-1]. Callers must check the value is within range
  /// when exactness matters.
  size_t BinIndex(double value) const;

  /// Total count across bins.
  uint64_t TotalCount() const;
};

/// Builds a refined one-dimensional histogram from `sorted_values`
/// (ascending, nulls excluded) with the given initial edges (ascending;
/// first <= min value, last > max value). Implements Algorithm 1 lines 3–12
/// including RefineBin1D (Algorithm 2) with equal-width splits.
HistogramDim BuildHistogram1D(const std::vector<double>& sorted_values,
                              const std::vector<double>& initial_edges,
                              const RefineConfig& config,
                              const Chi2CriticalCache& critical);

/// A pairwise (2-d) histogram for columns (i, j): refined edges and
/// metadata in both dimensions plus the dense cell-count matrix.
struct PairHistogram {
  uint32_t col_i = 0;
  uint32_t col_j = 0;
  HistogramDim dim_i;  ///< refined e(i|j) with metadata and parent mapping
  HistogramDim dim_j;  ///< refined e(j|i)
  /// Row-major dim_i.NumBins() x dim_j.NumBins() cell counts H(ij).
  VecView<uint64_t> cells;

  // ---- Cell prefix index (execution index, not serialized) --------------
  // Dense per-row cell prefixes (exact integers): row ti of
  // cell_prefix_i has kj+1 entries with entry tj = Σ cells[ti][0..tj), so
  // the cell mass of any pred-bin range — and any single cell — is a
  // difference of two lookups. cell_prefix_j is the transposed
  // orientation (kj rows of ki+1). This is what lets query execution
  // answer fully-covered coverage runs per aggregation bin in O(1)
  // instead of walking cells. Derived by BuildCellPrefix.
  VecView<uint64_t> cell_prefix_i;
  VecView<uint64_t> cell_prefix_j;
  // Column-major transpose of the prefixes: cell_colpre_i has kj+1 rows of
  // ki entries, entry [tp][ti] = Σ cells[ti][0..tp). For one pred-bin
  // boundary tp the values of EVERY aggregation bin are contiguous, so a
  // coverage run's mass for all aggregation bins is one vectorized
  // subtraction of two adjacent-ish rows (see PairView::AggPrefixCol and
  // the multi-row reduction kernels in common/simd.h). cell_colpre_j is
  // the swapped orientation (ki+1 rows of kj). Same exact integers as
  // cell_prefix_*, laid out for cross-row sweeps.
  VecView<uint64_t> cell_colpre_i;
  VecView<uint64_t> cell_colpre_j;
  /// Per 1-d bin of col_i / col_j: fraction of the 1-d rows that have the
  /// OTHER column non-null (clamped to [0, 1]; 1.0 for empty 1-d bins).
  /// Filled by PairwiseHist::FinishExecIndex (needs the 1-d histograms).
  VecView<double> nonnull_frac_i;
  VecView<double> nonnull_frac_j;

  uint64_t CellCount(size_t ti, size_t tj) const {
    return cells[ti * dim_j.NumBins() + tj];
  }

  /// Derives both cell prefix orientations from `cells`.
  void BuildCellPrefix();
};

/// One column of a build sample, sorted and binned once and then shared
/// read-only by every pair the column belongs to (d-1 of them). Rows are
/// identified by their position p in the sample.
struct ColumnRanks {
  /// `bin` of a null position.
  static constexpr uint32_t kNullBin = UINT32_MAX;

  /// Per position: the code as a double, NaN for null (codes are integers,
  /// so NaN never stands for a real value).
  std::vector<double> value;
  /// Non-null positions in ascending value order (ties by position).
  std::vector<uint32_t> order;
  /// Per position: the 1-d bin holding the value (HistogramDim::BinIndex),
  /// kNullBin for null. Filled by AssignBins.
  std::vector<uint32_t> bin;

  /// Takes the per-position values and sorts their non-null positions in
  /// linear time: each value is keyed by its order-preserving 64-bit image
  /// (IEEE bits with negatives flipped and the sign bit set on the rest;
  /// -0.0 keys as +0.0), and stable counting passes run over only the bits
  /// in which the keys differ, at most 11 bits per pass. Stability keeps
  /// ties in position order.
  explicit ColumnRanks(std::vector<double> values);

  /// The non-null values in ascending order.
  std::vector<double> SortedValues() const;

  /// Fills `bin` against the 1-d histogram of this column, by one merge
  /// walk of `order` over its edges.
  void AssignBins(const HistogramDim& h1);

  bool IsNull(uint32_t p) const { return bin[p] == kNullBin; }
};

/// Builds the pairwise histogram for one column pair over the sample
/// positions where BOTH columns are non-null. `h1_i` / `h1_j` are the
/// already-built 1-d histograms providing initial edges (Algorithm 1 lines
/// 14–26); `ri` / `rj` must have had AssignBins called with them. Nothing
/// is sorted or binary-searched per row: initial cells, the refinement's
/// per-rectangle sorted values, the refined bins' metadata and the final
/// cells all come from the shared orders and bins.
PairHistogram BuildPairHistogram(const ColumnRanks& ri, const ColumnRanks& rj,
                                 uint32_t col_i, uint32_t col_j,
                                 const HistogramDim& h1_i,
                                 const HistogramDim& h1_j,
                                 const RefineConfig& config,
                                 const Chi2CriticalCache& critical);

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_HIST_HISTOGRAM_H_
