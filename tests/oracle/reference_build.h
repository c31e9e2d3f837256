// Test-only reference implementation of synopsis construction.
//
// The library builds every pair histogram from per-column ranks shared
// across the pairs (hist/histogram.h, ColumnRanks): each column is sorted
// and binned once per build. This oracle keeps the construction it
// replaced — every pair gathers its own paired values, assigns cells with
// HistogramDim::BinIndex, re-sorts both columns for the refined-bin
// metadata and sorts the rows of every rectangle during refinement — and
// the bit-by-bit GreedyGD record packing. Equivalence suites assert that
// the library's synopses and GD stores are byte-identical to these.
#ifndef PAIRWISEHIST_TESTS_ORACLE_REFERENCE_BUILD_H_
#define PAIRWISEHIST_TESTS_ORACLE_REFERENCE_BUILD_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/pairwise_hist.h"
#include "gd/greedy_gd.h"
#include "gd/preprocess.h"
#include "hist/histogram.h"

namespace pairwisehist {
namespace oracle {

/// Pair build over explicit paired values (rows where both columns are
/// non-null), sorting per pair and per refinement node.
PairHistogram ReferenceBuildPairHistogram(const std::vector<double>& xi,
                                          const std::vector<double>& xj,
                                          uint32_t col_i, uint32_t col_j,
                                          const HistogramDim& h1_i,
                                          const HistogramDim& h1_j,
                                          const RefineConfig& config,
                                          const Chi2CriticalCache& critical);

/// PairwiseHist::Build with ReferenceBuildPairHistogram for the pairs.
class ReferenceBuild {
 public:
  static StatusOr<PairwiseHist> Build(const PreprocessedTable& pre,
                                      const CompressedTable* gd,
                                      const PairwiseHistConfig& config);
};

/// The packed GreedyGD record streams of CompressedTable.
struct GdStores {
  std::vector<uint8_t> base_ids;
  std::vector<uint8_t> deviations;
};

/// Replays CompressedTable::Append over every row of `pre` with the given
/// per-column deviation widths: base IDs in order of first appearance,
/// starting 8 bits wide and repacked to needed + 2 bits when an ID
/// outgrows them.
GdStores ReferenceGdStores(const PreprocessedTable& pre,
                           const std::vector<int>& deviation_bits);

}  // namespace oracle
}  // namespace pairwisehist

#endif  // PAIRWISEHIST_TESTS_ORACLE_REFERENCE_BUILD_H_
