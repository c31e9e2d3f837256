// PairwiseHist: the paper's data synopsis (Section 4).
//
// A PairwiseHist consists of one refined 1-d histogram per column, one
// refined 2-d histogram per column pair, and per-bin metadata (actual
// min/max, midpoint, unique count, weighted-centre bounds). It is built
// from a row sample of the GD pre-processed code domain, optionally seeding
// the initial 1-d bin edges with the GreedyGD bases (Algorithm 1), and
// serializes to the compact Fig.-6 storage encoding (see encoding.cc).
#ifndef PAIRWISEHIST_CORE_PAIRWISE_HIST_H_
#define PAIRWISEHIST_CORE_PAIRWISE_HIST_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "gd/greedy_gd.h"
#include "gd/preprocess.h"
#include "hist/histogram.h"
#include "storage/table.h"

namespace pairwisehist {

namespace oracle {
class ReferenceBuild;
}  // namespace oracle

/// Build-time parameters (paper notation: Ns, M, α).
struct PairwiseHistConfig {
  /// Ns: rows sampled for construction (0 = use every row).
  size_t sample_size = 100000;
  /// M as a fraction of Ns (the paper uses 1%: M = 1000 for Ns = 100k).
  double min_points_fraction = 0.01;
  /// If non-zero, overrides the fraction with an absolute M.
  uint64_t min_points_override = 0;
  /// Hypothesis-test significance α.
  double alpha = 0.001;
  /// Sampling seed (construction is deterministic given the seed).
  uint64_t seed = 42;
  /// Seed initial 1-d edges with GreedyGD bases when a compressed table is
  /// supplied (the paper's compression↔AQP integration).
  bool use_bases_for_edges = true;
  /// Threads for pairwise (2-d) histogram construction: the d(d-1)/2
  /// BuildPairHistogram calls are independent and deterministic, so they
  /// run on a small pool with results written to fixed slots. 0 = one per
  /// hardware core, 1 = serial. Construction output is identical for any
  /// value.
  unsigned build_threads = 0;
};

/// Lower/upper bounds of a bin's weighted centre (Theorem 1 / Eq. 10).
struct CentreBounds {
  double lo = 0;
  double hi = 0;
};

/// A view of one pairwise histogram oriented as (aggregation column,
/// predicate column), hiding whether the pair is stored as (i,j) or (j,i).
class PairView {
 public:
  PairView() = default;
  PairView(const PairHistogram* ph, bool swapped)
      : ph_(ph), swapped_(swapped) {}

  bool valid() const { return ph_ != nullptr; }
  /// Dimension data for the aggregation column ("agg") and the predicate
  /// column ("pred").
  const HistogramDim& agg_dim() const {
    return swapped_ ? ph_->dim_j : ph_->dim_i;
  }
  const HistogramDim& pred_dim() const {
    return swapped_ ? ph_->dim_i : ph_->dim_j;
  }
  /// Cell count with (aggregation bin ta, predicate bin tp).
  uint64_t Cell(size_t ta, size_t tp) const {
    return swapped_ ? ph_->CellCount(tp, ta) : ph_->CellCount(ta, tp);
  }

  /// Dense cell prefix of aggregation bin `ta`: pred_dim().NumBins() + 1
  /// exact integers, entry tp = Σ cells over pred bins [0, tp). A cell is
  /// a difference of adjacent entries; a fully-covered coverage run's
  /// mass is one difference. Requires FinishExecIndex.
  const uint64_t* AggPrefix(size_t ta) const {
    return swapped_
               ? ph_->cell_prefix_j.data() + ta * (ph_->dim_i.NumBins() + 1)
               : ph_->cell_prefix_i.data() + ta * (ph_->dim_j.NumBins() + 1);
  }
  /// Column-major cell prefix at predicate-bin boundary `tp` (0 ..
  /// pred_dim().NumBins() inclusive): agg_dim().NumBins() contiguous exact
  /// integers, entry ta = Σ cells of agg bin ta over pred bins [0, tp).
  /// The mass of pred-bin range [a, b) for EVERY aggregation bin is the
  /// elementwise difference AggPrefixCol(b) - AggPrefixCol(a) — one
  /// contiguous sweep instead of NumBins strided AggPrefix lookups, which
  /// is what the multi-row reduction kernels consume. Requires
  /// FinishExecIndex.
  const uint64_t* AggPrefixCol(size_t tp) const {
    return swapped_ ? ph_->cell_colpre_j.data() + tp * ph_->dim_j.NumBins()
                    : ph_->cell_colpre_i.data() + tp * ph_->dim_i.NumBins();
  }
  /// Per 1-d aggregation-column bin: fraction of 1-d rows with the
  /// predicate column non-null (see PairHistogram::nonnull_frac_*).
  const VecView<double>& NonNullFrac() const {
    return swapped_ ? ph_->nonnull_frac_j : ph_->nonnull_frac_i;
  }

 private:
  const PairHistogram* ph_ = nullptr;
  bool swapped_ = false;
};

/// The build sample: `ns` of the `n` row indices, drawn by a partial
/// Fisher–Yates shuffle seeded with `seed`, in ascending order (all n rows
/// when ns >= n). PairwiseHist::Build draws its Ns rows with config.seed.
std::vector<uint32_t> SampleRows(size_t n, size_t ns, uint64_t seed);

/// The synopsis. Thread-safe for concurrent reads after construction.
class PairwiseHist {
 public:
  /// Builds from a pre-processed table; `gd` (optional) supplies the base
  /// values that seed initial 1-d bin edges. `total_rows` is N — pass the
  /// full dataset size when `pre` is itself already a sample.
  static StatusOr<PairwiseHist> Build(const PreprocessedTable& pre,
                                      const CompressedTable* gd,
                                      const PairwiseHistConfig& config);

  /// Convenience: preprocess + build without compression.
  static StatusOr<PairwiseHist> BuildFromTable(const Table& table,
                                               const PairwiseHistConfig& cfg);

  /// Convenience: compress with GreedyGD, then build on top of the bases.
  static StatusOr<PairwiseHist> BuildFromCompressed(
      const CompressedTable& gd, const PairwiseHistConfig& cfg);

  // ---- Introspection ----------------------------------------------------
  size_t num_columns() const { return transforms_.size(); }
  uint64_t total_rows() const { return total_rows_; }     ///< N
  uint64_t sample_rows() const { return sample_rows_; }   ///< Ns
  double sampling_ratio() const {                         ///< ρ = Ns/N
    return total_rows_ == 0
               ? 1.0
               : static_cast<double>(sample_rows_) / total_rows_;
  }
  uint64_t min_points() const { return min_points_; }     ///< M
  double alpha() const { return alpha_; }

  const ColumnTransform& transform(size_t col) const {
    return transforms_[col];
  }
  StatusOr<size_t> ColumnIndex(const std::string& name) const;

  const HistogramDim& hist1d(size_t col) const { return hist1d_[col]; }

  /// Pair view oriented (agg_col, pred_col); invalid view if agg == pred.
  PairView GetPair(size_t agg_col, size_t pred_col) const;

  /// Weighted-centre bounds for bin `t` of `dim` (Eq. 10): tight
  /// chi-squared-derived bounds for passing bins (count >= M), extremal
  /// packing bounds for non-passing bins.
  CentreBounds WeightedCentreBounds(const HistogramDim& dim, size_t t) const;

  /// χ²_α critical value for `df` degrees of freedom at this synopsis's α.
  double Chi2Critical(int df) const { return critical_->Get(df); }

  /// Shared critical-value cache (used by the query engine's coverage
  /// computations).
  const Chi2CriticalCache& critical_cache() const { return *critical_; }

  // ---- Storage (Fig. 6 encoding; implemented in encoding.cc) ------------
  /// Serializes the synopsis (params, 1-d hists, 2-d hists, Golomb/dense
  /// bin counts, transform catalog).
  std::vector<uint8_t> Serialize() const;
  /// Restores a synopsis; full query capability is preserved.
  static StatusOr<PairwiseHist> Deserialize(std::span<const uint8_t> data);
  /// Legacy overload; delegates to the span overload without copying.
  static StatusOr<PairwiseHist> Deserialize(const std::vector<uint8_t>& data);
  /// Bytes of the serialized form.
  size_t StorageBytes() const;

  /// Number of 2-d histograms (d*(d-1)/2).
  size_t num_pairs() const { return pairs_.size(); }
  const PairHistogram& pair_at(size_t idx) const { return pairs_[idx]; }

  /// True when this synopsis was opened zero-copy from a memory-mapped
  /// PWS3 file (its arrays borrow the mapping for its whole lifetime).
  bool mapped() const { return backing_ != nullptr; }

 private:
  friend class SynopsisCodec;
  friend class Pws3Codec;
  // The test-only reference builder (tests/oracle/reference_build.h)
  // assembles synopses with the pre-rank pair construction.
  friend class oracle::ReferenceBuild;
  PairwiseHist() = default;

  static size_t PairSlot(size_t i, size_t j);  // requires i > j

  /// Builds every derived execution index: 1-d count prefix sums, the
  /// per-pair dense cell prefixes and the per-pair non-null fractions.
  /// Called at the end of Build and Deserialize.
  void FinishExecIndex();

  uint64_t total_rows_ = 0;
  uint64_t sample_rows_ = 0;
  uint64_t min_points_ = 1;
  double alpha_ = 0.001;
  std::vector<ColumnTransform> transforms_;
  std::vector<HistogramDim> hist1d_;
  std::vector<PairHistogram> pairs_;  // slot PairSlot(i,j) holds pair (i,j), i>j
  std::shared_ptr<Chi2CriticalCache> critical_;
  /// Keeps the memory-mapped PWS3 file alive while any VecView field
  /// borrows from it (null for heap-built/heap-opened synopses). Typed as
  /// void so core/ need not depend on storage/mmap_file.h.
  std::shared_ptr<const void> backing_;
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_CORE_PAIRWISE_HIST_H_
