#include "query/segment_exec.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace pairwisehist {

namespace {

// ---------------------------------------------------------------------------
// Planner pruning: can any row of a segment satisfy the WHERE clause, given
// the segment's exact per-column [min, max] over non-null rows? Sound
// because rows with a null never satisfy a leaf condition (engine
// semantics), so "no non-null value can pass" means "no row can pass".

bool LeafMayMatch(const Condition& c, const PairwiseHist& syn,
                  const SegmentMeta& meta) {
  auto idx = syn.ColumnIndex(c.column);
  if (!idx.ok()) return true;  // compile surfaces the real error
  const size_t col = idx.value();
  const ColumnTransform& tr = syn.transform(col);

  if (tr.type == DataType::kCategorical || c.is_string) {
    // Equality against a category this segment has never seen matches
    // nothing here (the canonical dictionary only grows, so old segments
    // provably lack late-appended categories).
    if (c.is_string && tr.type == DataType::kCategorical &&
        c.op == CmpOp::kEq) {
      return tr.EncodeCategory(c.text_value).ok();
    }
    return true;
  }

  if (col >= meta.ranges.valid.size() || !meta.ranges.valid[col]) {
    return true;  // unknown range (legacy file / all-null segment)
  }
  // Widen by one code spacing: raw values round to the column's decimal
  // precision on the way into the code domain, so a literal within one
  // spacing of the range edge could still select rows.
  const double slack = tr.scale > 0 ? 1.0 / tr.scale : 1.0;
  const double lo = meta.ranges.min[col] - slack;
  const double hi = meta.ranges.max[col] + slack;
  switch (c.op) {
    case CmpOp::kLt:
      return lo < c.value;
    case CmpOp::kLe:
      return lo <= c.value;
    case CmpOp::kGt:
      return hi > c.value;
    case CmpOp::kGe:
      return hi >= c.value;
    case CmpOp::kEq:
      return lo <= c.value && c.value <= hi;
    case CmpOp::kNe:
      return true;  // conservatively assume a differing value exists
  }
  return true;
}

bool MayMatch(const PredicateNode& node, const PairwiseHist& syn,
              const SegmentMeta& meta) {
  if (node.type == PredicateNode::Type::kCondition) {
    return LeafMayMatch(node.condition, syn, meta);
  }
  const bool is_and = node.type == PredicateNode::Type::kAnd;
  for (const PredicateNode& child : node.children) {
    bool m = MayMatch(child, syn, meta);
    if (is_and && !m) return false;
    if (!is_and && m) return true;
  }
  return is_and;
}

}  // namespace

// ---------------------------------------------------------------------------
// SegmentedPlan

const Query& SegmentedPlan::query() const { return state_->query; }

size_t SegmentedPlan::PlannedSegments() const {
  return state_ == nullptr
             ? 0
             : state_->planned.load(std::memory_order_acquire);
}

size_t SegmentedPlan::PrunedSegments() const {
  if (state_ == nullptr) return 0;
  // Lock: a concurrent execution may be extending `skip` after an append.
  std::lock_guard<std::mutex> lock(state_->mu);
  size_t pruned = 0;
  for (uint8_t s : state_->skip) pruned += s;
  return pruned;
}

// ---------------------------------------------------------------------------
// SegmentedExecutor

SegmentedExecutor::SegmentedExecutor(const SynopsisSet* set,
                                     SegmentedExecOptions options)
    : set_(set), options_(options) {
  Status st = Refresh();
  (void)st;  // engine construction cannot fail; Refresh only grows vectors
}

SegmentedExecutor::~SegmentedExecutor() = default;
SegmentedExecutor::SegmentedExecutor(SegmentedExecutor&&) noexcept = default;
SegmentedExecutor& SegmentedExecutor::operator=(SegmentedExecutor&&) noexcept =
    default;

Status SegmentedExecutor::Refresh() {
  // A structural change (compaction replaced a run of segments) shifts the
  // index space: engine i may now face a different segment, so every
  // engine rebuilds. Pure growth (appends) keeps the prefix and only adds.
  const uint64_t sgen = set_->structure_generation();
  if (sgen != structure_seen_) {
    engines_.clear();
    structure_seen_ = sgen;
  }
  const size_t nseg = set_->NumSegments();
  for (size_t i = engines_.size(); i < nseg; ++i) {
    engines_.push_back(
        std::make_unique<AqpEngine>(&set_->synopsis(i), options_.engine));
  }
  if (pool_ == nullptr && engines_.size() > 1 && options_.exec_threads != 1) {
    pool_ = std::make_unique<TaskPool>(options_.exec_threads);
  }
  return Status::OK();
}

Status SegmentedExecutor::EnsurePlans(SegmentedPlan::State* st) const {
  const size_t nseg = engines_.size();
  const uint64_t sgen = structure_seen_;
  if (st->planned.load(std::memory_order_acquire) >= nseg &&
      st->structure_gen.load(std::memory_order_acquire) == sgen) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(st->mu);
  size_t planned = st->planned.load(std::memory_order_relaxed);
  if (planned >= nseg &&
      st->structure_gen.load(std::memory_order_relaxed) == sgen) {
    return Status::OK();
  }
  if (st->structure_gen.load(std::memory_order_relaxed) != sgen) {
    // Compaction replaced segments: every compiled plan and prune flag may
    // describe a retired segment. Discard and recompile the whole set
    // (this is what keeps prepared queries valid across Db::Compact — a
    // cached plan can never read a retired segment).
    st->plans.clear();
    st->skip.clear();
    planned = 0;
  }

  // Compile the missing tail; a failure truncates it again, leaving the
  // plan exactly as it was.
  st->plans.reserve(nseg);
  st->skip.reserve(nseg);
  for (size_t i = planned; i < nseg; ++i) {
    StatusOr<CompiledQuery> plan = engines_[i]->Compile(st->query);
    if (!plan.ok()) {
      st->plans.resize(planned);
      return plan.status();
    }
    st->plans.push_back(std::move(plan).value());
  }
  // Prune flags for the new segments only: sealed segments are immutable,
  // so a flag computed once stays valid until a compaction replaces it.
  const bool prune = options_.prune && st->query.where.has_value();
  for (size_t i = planned; i < nseg; ++i) {
    st->skip.push_back(
        prune && !MayMatch(*st->query.where, set_->synopsis(i),
                           set_->meta(i)));
  }
  st->structure_gen.store(sgen, std::memory_order_release);
  st->planned.store(nseg, std::memory_order_release);
  return Status::OK();
}

StatusOr<SegmentedPlan> SegmentedExecutor::Prepare(Query query) const {
  if (engines_.empty()) {
    return Status::Internal("SegmentedExecutor has no segments");
  }
  SegmentedPlan plan;
  plan.state_ = std::make_shared<SegmentedPlan::State>();
  plan.state_->query = std::move(query);
  PH_RETURN_IF_ERROR(EnsurePlans(plan.state_.get()));
  return plan;
}

Status SegmentedExecutor::ExecuteInto(const SegmentedPlan& plan,
                                      QueryResult* result) const {
  if (!plan.valid()) {
    return Status::Internal("SegmentedPlan used before Prepare");
  }
  SegmentedPlan::State* st = plan.state_.get();
  PH_RETURN_IF_ERROR(EnsurePlans(st));

  // Per-call bookkeeping comes from pooled scratch, so a warm read
  // allocates nothing beyond what the engines and the merge need.
  PoolLease<FanOutScratch> lease(scratch_pool_.get());
  FanOutScratch& scratch = *lease;
  if (scratch.parts.empty()) scratch.parts.emplace_back();
  std::vector<PartialResult>& parts = scratch.parts[0];
  const size_t nseg = engines_.size();
  parts.resize(nseg);
  scratch.statuses.assign(nseg, Status::OK());
  auto work = [&](size_t i) {
    if (st->skip[i]) {
      parts[i].groups.clear();  // pruned: contributes nothing
      return;
    }
    scratch.statuses[i] =
        engines_[i]->ExecutePartialInto(st->plans[i], &parts[i]);
  };
  size_t live = 0;
  for (size_t i = 0; i < nseg; ++i) live += st->skip[i] ? 0 : 1;
  if (live > 1 && pool_ != nullptr) {
    pool_->Run(nseg, work);
  } else {
    for (size_t i = 0; i < nseg; ++i) work(i);
  }
  for (const Status& s : scratch.statuses) {
    if (!s.ok()) return s;
  }
  // The ledger feeds the compaction picker, which only has work once
  // there are several segments.
  if (options_.ledger != nullptr && nseg > 1 && st->query.group_by.empty()) {
    RecordFeedback(*st, parts);
  }

  // Deterministic serial merge in segment order: results are bit-equal for
  // any exec_threads value. The merge runs on the same kernel tier as the
  // per-segment executions.
  MergePartialResults(st->query.func, !st->query.group_by.empty(),
                      parts.data(), nseg, result,
                      &GetKernels(options_.engine.kernels));
  return Status::OK();
}

void SegmentedExecutor::RecordFeedback(
    const SegmentedPlan::State& st,
    const std::vector<PartialResult>& parts) const {
  for (size_t i = 0; i < parts.size() && i < set_->NumSegments(); ++i) {
    if (i < st.skip.size() && st.skip[i]) continue;
    if (parts[i].groups.empty()) continue;
    const PartialAggregate& a = parts[i].groups[0].agg;
    if (a.empty) continue;
    double rel;
    if (st.query.func == AggFunc::kCount) {
      rel = (a.count_hi - a.count_lo) / std::max(1.0, a.count);
    } else {
      rel = (a.value.upper - a.value.lower) /
            std::max(1e-12, std::fabs(a.value.estimate));
    }
    options_.ledger->Record(set_->meta(i).row_begin, rel);
  }
}

StatusOr<QueryResult> SegmentedExecutor::Execute(
    const SegmentedPlan& plan) const {
  QueryResult result;
  PH_RETURN_IF_ERROR(ExecuteInto(plan, &result));
  return result;
}

}  // namespace pairwisehist
