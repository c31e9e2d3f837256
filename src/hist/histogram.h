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
#include <span>
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
/// metadata in both dimensions plus the cell counts H(ij), held only as
/// column-major prefixes.
struct PairHistogram {
  uint32_t col_i = 0;
  uint32_t col_j = 0;
  HistogramDim dim_i;  ///< refined e(i|j) with metadata and parent mapping
  HistogramDim dim_j;  ///< refined e(j|i)
  // Column-major cell prefixes, the only copy of the cells: cell_colpre_i
  // has kj+1 rows of ki entries, entry [tp][ti] = Σ cells[ti][0..tp).
  // For one pred-bin boundary tp the values of EVERY aggregation bin are
  // contiguous, so a coverage run's mass for all aggregation bins is one
  // vectorized subtraction of two rows (see PairView::AggPrefixCol and
  // the multi-row reduction kernels in common/simd.h), and a single cell
  // is the difference of two adjacent rows. cell_colpre_j is the swapped
  // orientation (ki+1 rows of kj). Exact integers (totals stay below
  // 2^53). Built by BuildCellPrefix.
  VecView<uint64_t> cell_colpre_i;
  VecView<uint64_t> cell_colpre_j;
  /// Per 1-d bin of col_i / col_j: fraction of the 1-d rows that have the
  /// OTHER column non-null (clamped to [0, 1]; 1.0 for empty 1-d bins).
  /// Filled by PairwiseHist::FinishExecIndex (needs the 1-d histograms).
  VecView<double> nonnull_frac_i;
  VecView<double> nonnull_frac_j;

  /// Cell count H(ij)[ti][tj], from two adjacent rows of cell_colpre_i.
  uint64_t CellCount(size_t ti, size_t tj) const {
    const size_t ki = dim_i.NumBins();
    return cell_colpre_i[(tj + 1) * ki + ti] - cell_colpre_i[tj * ki + ti];
  }

  /// Builds both column-major prefixes from the row-major
  /// dim_i.NumBins() x dim_j.NumBins() cell counts, so both dims must
  /// already hold their counts. Every producer of cells (the build, the
  /// PWS2 decoder) ends here.
  void BuildCellPrefix(std::span<const uint64_t> cells);
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
  /// k+1 entries for a 1-d histogram of k bins: bin t's positions are the
  /// contiguous slice order[bin_start[t], bin_start[t+1]), since bins are
  /// monotone in value. Filled by AssignBins.
  std::vector<uint32_t> bin_start;

  /// Takes the per-position values and sorts their non-null positions in
  /// linear time: each value is keyed by its order-preserving 64-bit image
  /// (IEEE bits with negatives flipped and the sign bit set on the rest;
  /// -0.0 keys as +0.0), and stable counting passes run over only the bits
  /// in which the keys differ, at most 11 bits per pass. Stability keeps
  /// ties in position order.
  explicit ColumnRanks(std::vector<double> values);

  /// The non-null values in ascending order.
  std::vector<double> SortedValues() const;

  /// Fills `bin` and `bin_start` against the 1-d histogram of this column,
  /// by one merge walk of `order` over its edges.
  void AssignBins(const HistogramDim& h1);

  bool IsNull(uint32_t p) const { return bin[p] == kNullBin; }
};

/// The temporaries of BuildPairHistogram. One build worker keeps one and
/// passes it to every pair it builds, so once its arrays have grown to the
/// build's sizes a pair allocates only its output arrays. What it holds
/// between calls is meaningless.
struct PairBuildScratch {
  /// Per dimension of the pair.
  struct Dim {
    std::vector<uint8_t> holds_full;  ///< per 1-d bin: has an over-full cell
    std::vector<double> new_edges;    ///< the refinement's split points
    std::vector<uint32_t> first;      ///< per 1-d edge: its refined index
    std::vector<uint32_t> row_bin;    ///< per position in a split 1-d bin:
                                      ///< its refined bin
  };
  Dim dim_i, dim_j;
  std::vector<uint64_t> cells;    ///< initial, later final, cell counts
  std::vector<uint32_t> slot;     ///< per initial cell: over-full index
  std::vector<uint32_t> offset;   ///< per over-full cell: start of its rows
  std::vector<uint32_t> cursor;   ///< fill cursors over `offset`
  std::vector<uint32_t> by_i;     ///< over-full cells' rows in i order
  std::vector<uint32_t> by_j;     ///< the same rows in j order
  std::vector<double> values;     ///< one refinement node's sorted values
  std::vector<uint32_t> upper;    ///< a split's upper half
};

/// Builds the pairwise histogram for one column pair over the sample
/// positions where BOTH columns are non-null. `h1_i` / `h1_j` are the
/// already-built 1-d histograms providing initial edges (Algorithm 1 lines
/// 14–26); `ri` / `rj` must have had AssignBins called with them.
///
/// A pair pays only for the rows its refinement touches. The initial cells
/// take one sequential pass over the positions' 1-d bins. Only over-full
/// cells (more than M rows) get their sorted row lists, gathered from the
/// order slices of the 1-d bins that hold them. The refined edges are a
/// linear merge of the 1-d edges and the new ones. A 1-d bin that gained
/// no edge copies its metadata from the 1-d histogram when the other
/// column has no null in the sample; every other 1-d bin walks only its
/// own order slice. The final cells are the initial ones when neither
/// dimension gained an edge, else one sequential pass. Nothing is sorted or
/// binary-searched per row, and all temporaries live in `scratch`.
PairHistogram BuildPairHistogram(const ColumnRanks& ri, const ColumnRanks& rj,
                                 uint32_t col_i, uint32_t col_j,
                                 const HistogramDim& h1_i,
                                 const HistogramDim& h1_j,
                                 const RefineConfig& config,
                                 const Chi2CriticalCache& critical,
                                 PairBuildScratch* scratch);

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_HIST_HISTOGRAM_H_
