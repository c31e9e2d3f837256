// Batched multi-query execution over a segmented synopsis.
//
// Interactive dashboards issue dozens of simultaneous aggregates over the
// same table; executed one at a time, each re-pays coverage, probability
// and Eq.-29 weighting work that is identical for every query sharing an
// aggregation grid and predicate set. A PreparedBatch carries many
// statements prepared together: execution groups their per-segment plans
// by grid (AqpEngine::ExecutePartialBatchInto), computes each distinct
// predicate set's pipeline once, weights all of them with a single batched
// kernel call over a plan-major SoA block, runs only the cheap per-query
// aggregation individually, and merges each statement's per-segment
// partials exactly as single-statement execution does. Duplicate
// statements (same normalized SQL) share one plan outright.
//
// The safety rail: batch results are BIT-IDENTICAL to executing every
// statement on its own with PreparedQuery::ExecuteInto — on every kernel
// tier, for any exec_threads, before and after Db::Append (asserted by
// tests/batch_test.cc).
#ifndef PAIRWISEHIST_QUERY_BATCH_EXEC_H_
#define PAIRWISEHIST_QUERY_BATCH_EXEC_H_

#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "query/segment_exec.h"

namespace pairwisehist {

class Db;

/// A set of SQL statements prepared together against one Db (see
/// Db::PrepareBatch): planned once per segment like PreparedQuery, with
/// duplicate statements deduplicated onto a shared plan. Must not outlive
/// the Db; Db::Append keeps batches valid (plans for newly sealed segments
/// compile lazily on first execution, exactly like PreparedQuery).
class PreparedBatch {
 public:
  PreparedBatch() = default;

  /// Number of statements in the batch (including duplicates).
  size_t size() const { return plan_of_query_.size(); }
  /// Number of distinct plans after duplicate-statement dedup.
  size_t NumDistinctPlans() const { return plans_.size(); }
  /// Statement i as parsed (duplicates share their plan's Query).
  const Query& query(size_t i) const {
    return plans_[plan_of_query_[i]].query();
  }
  bool valid() const { return exec_ != nullptr; }

  /// Executes every statement as one batch. `results` is resized to
  /// size(); results[i] is bit-identical to executing statement i alone.
  Status ExecuteInto(std::vector<QueryResult>* results) const;
  StatusOr<std::vector<QueryResult>> Execute() const;

 private:
  friend class Db;

  const SegmentedExecutor* exec_ = nullptr;
  std::vector<SegmentedPlan> plans_;   ///< distinct plans
  std::vector<size_t> plan_of_query_;  ///< statement i -> index in plans_
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_QUERY_BATCH_EXEC_H_
