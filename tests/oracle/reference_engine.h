// Test-only reference implementation of query execution (paper Sec. 5).
//
// The library has one execution path (query/engine.h): a zero-allocation
// pipeline that restricts every loop to the touched bin range, reduces
// pair cells for all rows at once over column-major prefixes and
// shortcuts fully covered COUNTs. This oracle recomputes the per-bin
// satisfaction probabilities the plain way instead — vectors over the
// whole grid, one ReduceRow walk per aggregation row, Eq.-28 AND/OR
// combination over [0, k) — and assembles results the way the engine's
// ExecuteInto does (exact COUNT(*), per-value GROUP BY loop, empty-group
// COUNT filter, group labels).
//
// It shares with the engine, through query/engine_internal.h, the stages
// both compute identically: coverage (ComputeCoverageInto), Eq.-29
// weighting, Table-3 aggregation, group-label formatting and clip /
// single-column resolution. Equivalence suites therefore assert the engine
// and the oracle agree to the exact double.
#ifndef PAIRWISEHIST_TESTS_ORACLE_REFERENCE_ENGINE_H_
#define PAIRWISEHIST_TESTS_ORACLE_REFERENCE_ENGINE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/pairwise_hist.h"
#include "query/ast.h"
#include "query/engine.h"

namespace pairwisehist {
namespace oracle {

/// Per-bin weightings over an aggregation grid, with bounds (w, w−, w+ in
/// the paper's notation).
struct Weightings {
  std::vector<double> w;
  std::vector<double> lo;
  std::vector<double> hi;

  double Total() const;
};

/// Dense reference executor over one synopsis. Plans are compiled by an
/// AqpEngine with the same options, so the oracle re-executes exactly the
/// plan the engine would run.
class ReferenceEngine {
 public:
  /// The synopsis must outlive the oracle.
  explicit ReferenceEngine(const PairwiseHist* synopsis,
                           AqpEngineOptions options = {});

  /// Executes a plan compiled against the same synopsis.
  StatusOr<QueryResult> Execute(const CompiledQuery& plan) const;
  /// Compile (with an AqpEngine) + Execute.
  StatusOr<QueryResult> Execute(const Query& query) const;
  StatusOr<QueryResult> ExecuteSql(const std::string& sql) const;

  /// Weightings for `query`'s WHERE clause over the 1-d histogram of
  /// `agg_col` (the paper's Eq. 28 layout), whatever grid the engine would
  /// choose.
  StatusOr<Weightings> ComputeWeightings(size_t agg_col,
                                         const Query& query) const;

 private:
  /// Per-bin satisfaction probabilities with bounds, on some grid.
  struct Prob {
    std::vector<double> p, lo, hi;
  };

  Prob LeafProb(size_t agg_col, const NormalizedPredicate& leaf,
                const AggGrid& grid) const;
  Prob EvalNode(size_t agg_col, const NormalizedPredicate& node,
                const AggGrid& grid) const;
  Weightings WeightsFromProb(const HistogramDim& dim, const Prob& prob) const;
  /// Probabilities + Eq. 29 weights for a plan, optionally conjoined with
  /// the per-value GROUP BY leaf.
  Weightings ComputeWeights(const CompiledQuery& plan,
                            const NormalizedPredicate* extra_group_leaf) const;
  AggResult ExecuteScalar(const CompiledQuery& plan,
                          const NormalizedPredicate* extra_group_leaf) const;

  const PairwiseHist* ph_;
  AqpEngine compiler_;
  const KernelOps* ks_;
};

}  // namespace oracle
}  // namespace pairwisehist

#endif  // PAIRWISEHIST_TESTS_ORACLE_REFERENCE_ENGINE_H_
