// Mergeable per-segment partial aggregates.
//
// Every read splits a query into one ExecutePartialInto call per live
// segment (coverage + weighting + aggregation on that segment's own
// synopsis) followed by a deterministic serial merge. A one-segment Db is
// simply a merge of one part. The merge rules:
//
//   one part  identity: when at most one segment carries groups, each
//             group's `value` (the segment's own finalized answer) passes
//             through unchanged.
//   COUNT     exact: sums of per-segment estimates and bounds over every
//             part (an empty part can still carry upper-bound mass);
//             empty_selection when every part is empty.
//   SUM       exact: sums (an empty segment contributes zero).
//   AVG       count-weighted mean of segment means; bounds from the
//             box-constrained weighted-average extremes (segment weights
//             range over their own [count−, count+] intervals).
//   VAR       pooled variance (within + between): Σw(v+m²)/W − m̄²; lower
//             bound is the smallest segment lower bound (pooled variance
//             dominates the weighted mean of within-segment variances),
//             upper bound from extremal second moments.
//   MIN/MAX   exact: min/max of segment estimates and of their bounds.
//   MEDIAN    weighted cross-segment quantile merge: each segment exports
//             its touched bins as (value interval, de-sampled weight)
//             triples in the raw domain; the merged weighted CDF is walked
//             exactly like the single-segment Table-3 rule.
//
// Non-COUNT functions draw only from parts with mass; a single part with
// mass returns its own `value`, MEDIAN included.
//
// Group results merge by label (first-seen order across segments in
// segment order), so per-segment categorical dictionaries only need to
// agree on strings, not on codes.
#ifndef PAIRWISEHIST_QUERY_PARTIAL_AGG_H_
#define PAIRWISEHIST_QUERY_PARTIAL_AGG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/simd.h"
#include "query/ast.h"

namespace pairwisehist {

/// Sufficient statistics of one query over one segment. `value` is the
/// segment's own finalized AggResult for every function (COUNT, MEDIAN
/// and empty selections included); `count` carries the estimated
/// matching-row mass (COUNT semantics, already de-sampled by 1/ρ of the
/// owning segment); `mean` is filled for VAR only; and `median_bins` only
/// for MEDIAN.
struct PartialAggregate {
  bool empty = true;  ///< no estimated matching mass in this segment
  double count = 0, count_lo = 0, count_hi = 0;
  AggResult value;
  AggResult mean;  ///< VAR only: the segment mean with bounds

  /// One touched bin of a MEDIAN query, decoded to the raw value domain
  /// with de-sampled weights.
  struct MedianBin {
    double v_lo = 0, v_hi = 0;
    double w = 0, w_lo = 0, w_hi = 0;
    uint64_t unique = 0;
  };
  std::vector<MedianBin> median_bins;
};

/// One segment's result: a group per emitted label ("" for scalar
/// queries). Grouped execution omits groups with no estimated mass.
struct PartialResult {
  struct Group {
    std::string label;
    PartialAggregate agg;
  };
  std::vector<Group> groups;
};

/// Merges per-segment partials for one (group, function) into a final
/// AggResult. Empty partials contribute nothing (except COUNT upper-bound
/// mass); all-empty yields empty_selection (COUNT: estimate 0). `ks`
/// selects the kernel tier for the MEDIAN CDF merge (it can walk
/// thousands of exported bins); null means scalar. The merge itself is
/// always serial and deterministic.
AggResult MergePartials(AggFunc func,
                        const std::vector<const PartialAggregate*>& parts,
                        const KernelOps* ks = nullptr);

/// Merges the `n` per-segment results `parts` by label into `out`,
/// overwriting its warm group slots. Group order: first seen, walking
/// segments in order. When at most one part carries groups, each group's
/// own `value` passes through and nothing is allocated. Grouped COUNT
/// results drop groups whose estimate is <= 0.5, and grouped non-COUNT
/// results drop empty-selection groups.
void MergePartialResults(AggFunc func, bool grouped,
                         const PartialResult* parts, size_t n,
                         QueryResult* out, const KernelOps* ks = nullptr);

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_QUERY_PARTIAL_AGG_H_
