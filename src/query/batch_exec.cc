#include "query/batch_exec.h"

#include <algorithm>

#include "query/partial_agg.h"

namespace pairwisehist {

// ---------------------------------------------------------------------------
// SegmentedExecutor batch execution (declared in segment_exec.h; lives here
// with the rest of the batch machinery).

Status SegmentedExecutor::ExecuteBatchInto(
    const std::vector<const SegmentedPlan*>& plans,
    const std::vector<QueryResult*>& results) const {
  if (plans.size() != results.size()) {
    return Status::InvalidArgument("batch plans/results size mismatch");
  }
  if (plans.empty()) return Status::OK();
  PoolLease<FanOutScratch> lease(scratch_pool_.get());
  return ExecuteBatchImpl(plans.data(), results.data(), plans.size(), *lease);
}

Status SegmentedExecutor::ExecuteBatchInto(const SegmentedPlan* plans,
                                           QueryResult* results,
                                           size_t n) const {
  if (n == 0) return Status::OK();
  PoolLease<FanOutScratch> lease(scratch_pool_.get());
  FanOutScratch& scratch = *lease;
  scratch.plan_ptrs.resize(n);
  scratch.result_ptrs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    scratch.plan_ptrs[i] = &plans[i];
    scratch.result_ptrs[i] = &results[i];
  }
  return ExecuteBatchImpl(scratch.plan_ptrs.data(), scratch.result_ptrs.data(),
                          n, scratch);
}

Status SegmentedExecutor::ExecuteBatchImpl(const SegmentedPlan* const* plans,
                                           QueryResult* const* results,
                                           size_t nq,
                                           FanOutScratch& scratch) const {
  for (size_t q = 0; q < nq; ++q) {
    if (plans[q] == nullptr || !plans[q]->valid()) {
      return Status::Internal("SegmentedPlan used before Prepare");
    }
  }
  // Extend lazily compiled plans (post-append segments) up front, under
  // each plan's own mutex, so the fan-out below reads stable state.
  for (size_t q = 0; q < nq; ++q) {
    PH_RETURN_IF_ERROR(EnsurePlans(plans[q]->state_.get()));
  }

  // Fan the batch × segment tasks over the pool: one task per segment,
  // each running the whole batch's mergeable partials on that segment
  // through the engine's batched partial path (so grid sharing is
  // amortized inside every segment too). Pruned (plan, segment) pairs
  // contribute nothing, exactly like single-plan execution: their slots
  // are cleared, and the engine overwrites every other slot in place.
  const size_t nseg = engines_.size();
  scratch.parts.resize(nq);
  scratch.statuses.assign(nseg, Status::OK());
  scratch.task_cps.resize(nseg);
  scratch.task_outs.resize(nseg);
  for (size_t q = 0; q < nq; ++q) scratch.parts[q].resize(nseg);
  auto work = [&](size_t s) {
    std::vector<const CompiledQuery*>& cps = scratch.task_cps[s];
    std::vector<PartialResult*>& outs = scratch.task_outs[s];
    cps.clear();
    outs.clear();
    for (size_t q = 0; q < nq; ++q) {
      SegmentedPlan::State* st = plans[q]->state_.get();
      if (st->skip[s]) {
        scratch.parts[q][s].groups.clear();
        continue;
      }
      cps.push_back(&st->plans[s]);
      outs.push_back(&scratch.parts[q][s]);
    }
    if (!cps.empty()) {
      scratch.statuses[s] = engines_[s]->ExecutePartialBatchInto(cps, outs);
    }
  };
  size_t live = 0;
  for (size_t s = 0; s < nseg; ++s) {
    bool any = false;
    for (size_t q = 0; q < nq && !any; ++q) {
      any = plans[q]->state_->skip[s] == 0;
    }
    live += any ? 1 : 0;
  }
  if (live > 1 && pool_ != nullptr) {
    pool_->Run(nseg, work);
  } else {
    for (size_t s = 0; s < nseg; ++s) work(s);
  }
  for (const Status& s : scratch.statuses) {
    if (!s.ok()) return s;
  }
  if (options_.ledger != nullptr && nseg > 1) {
    for (size_t q = 0; q < nq; ++q) {
      const SegmentedPlan::State& st = *plans[q]->state_;
      if (st.query.group_by.empty()) RecordFeedback(st, scratch.parts[q]);
    }
  }

  // Deterministic serial merge per query in segment order — the same
  // merge the single-plan path runs, so any exec_threads (and the batch
  // itself) leaves results bit-identical to the per-query loop.
  const KernelOps* ks = &GetKernels(options_.engine.kernels);
  for (size_t q = 0; q < nq; ++q) {
    const Query& query = plans[q]->state_->query;
    MergePartialResults(query.func, !query.group_by.empty(),
                        scratch.parts[q].data(), nseg, results[q], ks);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// PreparedBatch

Status PreparedBatch::ExecuteInto(std::vector<QueryResult>* results) const {
  if (exec_ == nullptr) {
    return Status::Internal("PreparedBatch used before Db::PrepareBatch");
  }
  const size_t nq = plan_of_query_.size();
  results->resize(nq);
  if (plans_.size() == nq) {
    // No duplicates: plan_of_query_ is the identity by construction, so
    // execute straight into the caller's (warm) results through the
    // contiguous overload — no per-call pointer marshalling at all.
    return exec_->ExecuteBatchInto(plans_.data(), results->data(), nq);
  }
  // Execute the distinct plans as one batch, then scatter to statement
  // order (duplicates copy the shared result — identical by determinism).
  std::vector<QueryResult> distinct(plans_.size());
  PH_RETURN_IF_ERROR(
      exec_->ExecuteBatchInto(plans_.data(), distinct.data(), plans_.size()));
  for (size_t q = 0; q < nq; ++q) {
    (*results)[q] = distinct[plan_of_query_[q]];
  }
  return Status::OK();
}

StatusOr<std::vector<QueryResult>> PreparedBatch::Execute() const {
  std::vector<QueryResult> results;
  PH_RETURN_IF_ERROR(ExecuteInto(&results));
  return results;
}

}  // namespace pairwisehist
