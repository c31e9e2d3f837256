// Execution stages of the query engine that the test oracle
// (tests/oracle/reference_engine.h) shares instead of copying: Eq.-29
// weighting, Table-3 aggregation, group-label formatting and the
// aggregation-clip / single-column resolution. The oracle recomputes the
// per-bin probabilities with dense scans and then runs these same
// functions, so the two agree to the exact double wherever their inputs
// do. Declarations only; the definitions live in engine.cc next to their
// callers. Not part of the public API.
#ifndef PAIRWISEHIST_QUERY_ENGINE_INTERNAL_H_
#define PAIRWISEHIST_QUERY_ENGINE_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/simd.h"
#include "core/pairwise_hist.h"
#include "query/ast.h"
#include "query/engine.h"
#include "query/exec_scratch.h"

namespace pairwisehist {
namespace engine_internal {

/// Table-3 aggregation of `func` over the weightings `wt` on `grid` (bins
/// outside [wt.begin, wt.end) carry zero weight). `agg_clip` is the
/// aggregation column's own conjunctive predicate, or nullptr. Temporaries
/// come from `arena`.
AggResult AggregateImpl(const PairwiseHist& ph, const KernelOps& ks,
                        AggFunc func, size_t agg_col, const AggGrid& grid,
                        const WeightTable& wt, bool single_column,
                        const IntervalSet* agg_clip, ExecArena& arena);

/// Eq.-29 weightings (w, w−, w+) of the probabilities `prob` over the bin
/// counts of `dim`, written into `wt` over [prob.begin, prob.end).
void WeightsInto(const PairwiseHist& ph, const HistogramDim& dim,
                 const ProbTable& prob, const WeightTable& wt,
                 const KernelOps& ks);

/// Raw-domain label of GROUP BY code `code`.
std::string FormatGroupLabel(const ColumnTransform& tr, uint64_t code);

/// Aggregation-column clip for one execution: the plan's WHERE-level clip,
/// else a per-value GROUP BY leaf on the aggregation column, else nullptr.
const IntervalSet* ResolveAggClip(const std::optional<IntervalSet>& clip,
                                  const NormalizedPredicate* extra_group_leaf,
                                  size_t agg_col);

/// Single-column special cases also require the group leaf (if any) to be
/// on the aggregation column.
bool ResolveSingle(bool plan_single,
                   const NormalizedPredicate* extra_group_leaf,
                   size_t agg_col);

}  // namespace engine_internal
}  // namespace pairwisehist

#endif  // PAIRWISEHIST_QUERY_ENGINE_INTERNAL_H_
