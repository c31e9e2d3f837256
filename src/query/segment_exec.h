// Cross-segment query execution over a SynopsisSet.
//
// One AqpEngine per sealed segment; a query is compiled per segment (each
// segment has its own code domain), pruned against per-segment min/max
// ranges, executed as mergeable partials — in parallel on a persistent
// work-stealing pool — and merged serially in segment order, so results
// are bit-identical for every exec_threads value. There is one read path
// for any segment count: a one-segment set (or a read pruned to one live
// segment) is a merge of one part, which returns that segment's own
// engine answer unchanged and allocates nothing in steady state.
//
// Plans extend lazily: Db::Append seals new segments, and the first
// execution after an append compiles the missing per-segment plans (and
// their prune flags — an existing segment never changes, so its flag never
// goes stale) under the plan's own mutex. A compaction replaces segments
// and so recompiles every plan and flag. The steady-state check is two
// acquire loads (planned count, structure generation).
#ifndef PAIRWISEHIST_QUERY_SEGMENT_EXEC_H_
#define PAIRWISEHIST_QUERY_SEGMENT_EXEC_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/object_pool.h"
#include "common/parallel.h"
#include "common/status.h"
#include "core/synopsis_set.h"
#include "query/engine.h"
#include "query/partial_agg.h"
#include "storage/compactor.h"

namespace pairwisehist {

/// Knobs for cross-segment execution.
struct SegmentedExecOptions {
  /// Per-segment engine refinement toggles.
  AqpEngineOptions engine;
  /// Fan-out threads for multi-segment execution: 0 = one per hardware
  /// core, 1 = serial. Results are identical for any value.
  unsigned exec_threads = 0;
  /// Skip segments whose per-column min/max provably cannot satisfy the
  /// WHERE clause.
  bool prune = true;
  /// When set, multi-segment scalar executions record each segment's
  /// observed relative CI width here (the compaction picker's error
  /// signal). Shared across copy-on-append/compact snapshots.
  std::shared_ptr<FeedbackLedger> ledger;
};

/// A query prepared against every segment of a SynopsisSet. Movable;
/// thread-safe for concurrent execution. Internally mutable: executions
/// after an append compile the plans for new segments on first use.
class SegmentedPlan {
 public:
  SegmentedPlan() = default;
  /// The statement's one parsed Query (the per-segment plans keep only
  /// what execution reads).
  const Query& query() const;
  /// Segments planned so far (grows lazily after appends).
  size_t PlannedSegments() const;
  /// Segments the planner proved unable to match (of those planned).
  size_t PrunedSegments() const;
  bool valid() const { return state_ != nullptr; }

 private:
  friend class SegmentedExecutor;
  struct State {
    Query query;
    std::mutex mu;                     // guards extension
    std::atomic<size_t> planned{0};    // release-published plan count
    /// SynopsisSet::structure_generation() the plans were compiled at. A
    /// compaction REPLACES segments (indices shift, engines rebuild), so
    /// on mismatch every plan — not just the tail — recompiles. This is
    /// what keeps PreparedQuery/PreparedBatch valid across Db::Compact.
    std::atomic<uint64_t> structure_gen{0};
    std::vector<CompiledQuery> plans;  // one per segment
    std::vector<uint8_t> skip;         // 1 = provably no match
  };
  std::shared_ptr<State> state_;
};

class SegmentedExecutor {
 public:
  /// The set must outlive the executor. Call Refresh() after the set gains
  /// segments (not concurrently with execution).
  SegmentedExecutor(const SynopsisSet* set, SegmentedExecOptions options);
  ~SegmentedExecutor();
  SegmentedExecutor(SegmentedExecutor&&) noexcept;
  SegmentedExecutor& operator=(SegmentedExecutor&&) noexcept;

  /// Creates engines for segments appended since construction/last call.
  /// After a compaction (structure_generation changed) EVERY engine is
  /// rebuilt: replaced segments shifted the index space.
  Status Refresh();

  /// Compiles `query` against every current segment (later segments are
  /// compiled lazily at execution time). The plan takes the query.
  StatusOr<SegmentedPlan> Prepare(Query query) const;

  /// Executes: per-segment partials (fanned out over the pool when more
  /// than one segment is live), then a deterministic serial merge.
  Status ExecuteInto(const SegmentedPlan& plan, QueryResult* result) const;
  StatusOr<QueryResult> Execute(const SegmentedPlan& plan) const;

  /// Batch execution (implemented in batch_exec.cc): plans execute as one
  /// batch per segment through AqpEngine::ExecutePartialBatchInto, so
  /// grid-sharing plans amortize their coverage + weighting within every
  /// segment. The batch × segment partial tasks fan out over the pool and
  /// each query merges serially in segment order; results[i] is
  /// bit-identical to ExecuteInto(*plans[i], results[i]) for any
  /// exec_threads. Plans extend lazily after appends exactly like
  /// single-plan execution.
  Status ExecuteBatchInto(const std::vector<const SegmentedPlan*>& plans,
                          const std::vector<QueryResult*>& results) const;

  /// Contiguous-array overload: executes plans[i] into results[i] for
  /// i < n with no caller-side pointer marshalling — all per-call
  /// bookkeeping lives in pooled scratch, so steady-state batches
  /// allocate nothing.
  Status ExecuteBatchInto(const SegmentedPlan* plans, QueryResult* results,
                          size_t n) const;

  size_t NumSegments() const { return engines_.size(); }
  const AqpEngine& engine(size_t i) const { return *engines_[i]; }
  const SynopsisSet& set() const { return *set_; }
  const SegmentedExecOptions& options() const { return options_; }

 private:
  /// Compiles plans and prune flags for segments in [planned, current);
  /// after a compaction, discards and recompiles the whole plan set.
  Status EnsurePlans(SegmentedPlan::State* st) const;

  /// Folds one scalar execution's per-segment partials into the feedback
  /// ledger (no-op unless options_.ledger is set).
  void RecordFeedback(const SegmentedPlan::State& st,
                      const std::vector<PartialResult>& parts) const;

  /// Per-call bookkeeping for single-plan and batch execution, leased
  /// from a pool so repeated reads reuse warmed capacity and concurrent
  /// const callers never share mutable state. Vectors only ever grow;
  /// engines overwrite live partial slots in place and pruned slots are
  /// cleared (the merge reads every slot).
  struct FanOutScratch {
    std::vector<const SegmentedPlan*> plan_ptrs;  // contiguous overload
    std::vector<QueryResult*> result_ptrs;        // contiguous overload
    std::vector<std::vector<PartialResult>> parts;  // [query][segment]
    std::vector<std::vector<const CompiledQuery*>> task_cps;  // per segment
    std::vector<std::vector<PartialResult*>> task_outs;       // per segment
    std::vector<Status> statuses;                             // per segment
  };
  Status ExecuteBatchImpl(const SegmentedPlan* const* plans,
                          QueryResult* const* results, size_t n,
                          FanOutScratch& scratch) const;

  const SynopsisSet* set_;
  SegmentedExecOptions options_;
  std::vector<std::unique_ptr<AqpEngine>> engines_;
  /// The set structure_generation() engines_ was built against.
  uint64_t structure_seen_ = 0;
  /// Persistent fan-out pool; created by the constructor / Refresh once
  /// the set holds more than one segment (and exec_threads != 1).
  std::unique_ptr<TaskPool> pool_;
  /// Fan-out scratch pool (unique_ptr keeps the executor movable).
  std::unique_ptr<ObjectPool<FanOutScratch>> scratch_pool_ =
      std::make_unique<ObjectPool<FanOutScratch>>();
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_QUERY_SEGMENT_EXEC_H_
