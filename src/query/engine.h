// The PairwiseHist AQP query engine (paper Section 5).
//
// Pipeline per Fig. 7: parse SQL → map literals into the GD code domain →
// normalize the predicate tree with same-column consolidation (delayed
// transformation) → per-leaf coverage over the relevant pairwise histogram
// dimension with Theorem-2 bounds → combine AND/OR probabilities under
// conditional independence (Eq. 28) → bin weightings + Eq. 29 sampling
// widening → Table-3 aggregation with lower/upper bounds → map results back
// to the raw value domain.
//
// Three engine refinements beyond the paper's literal formulas:
//  * pair grids — aggregate on the refined e(i|j) grid of the most
//    informative predicate pair instead of projecting every predicate onto
//    the coarse 1-d grid. This is what the per-pair v±/c/u metadata the
//    paper stores (Fig. 4/6) exists for; without it, cross-column
//    aggregates collapse to 1-d bin midpoints.
//  * aggregation-column clips — when the aggregation column itself
//    carries a conjunctive predicate, restrict each bin's value interval
//    to the predicate's intersection with [v−, v+] under the within-bin
//    uniformity model before computing midpoints/extrema.
//  * within-bin variance — add the uniform variance term (v+ − v−)²/12
//    to VAR (Table 3's formula alone sees only between-bin variance and
//    reports 0 for single-bin columns).
//
// There is one execution path: a zero-allocation pipeline over a pooled
// scratch arena (cell prefix index, interval-localized coverage,
// range-restricted weighting and aggregation). A dense per-bin reference
// implementation lives in tests/oracle/ as a test-only oracle; the
// equivalence suite asserts the two agree to the exact double.
#ifndef PAIRWISEHIST_QUERY_ENGINE_H_
#define PAIRWISEHIST_QUERY_ENGINE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/object_pool.h"
#include "common/simd.h"
#include "common/status.h"
#include "core/pairwise_hist.h"
#include "query/ast.h"
#include "query/coverage.h"
#include "query/partial_agg.h"

namespace pairwisehist {

class ExecArena;  // query/exec_scratch.h

/// Engine execution options.
struct AqpEngineOptions {
  /// SIMD kernel tier for the execution loops (see common/simd.h):
  /// runtime-detected widest by default, kScalar forces the scalar
  /// kernels. Per-tier results are deterministic (bit-identical across
  /// runs and exec_threads); scalar and SIMD tiers agree to 1e-9 relative
  /// (lane reassociation only). The test oracle (tests/oracle/) runs the
  /// same tier, preserving its exact equivalence with the engine.
  KernelMode kernels = KernelMode::kAuto;
};

/// Normalized predicate tree: leaves are consolidated (column,
/// interval-set) pairs after the paper's delayed transformation; AND/OR
/// structure is preserved for cross-column combination (Eq. 28).
struct NormalizedPredicate {
  enum class Type { kLeaf, kAnd, kOr };
  Type type = Type::kLeaf;
  size_t column = 0;     // leaf
  IntervalSet intervals; // leaf
  std::vector<NormalizedPredicate> children;
  /// Compile-time cache for cross-column leaves: grid bin → refined
  /// aggregation bin of this leaf's pairwise histogram (empty for leaves
  /// that don't transfer across pairs). Filled by AqpEngine::Compile.
  std::vector<uint32_t> g2ta;
};

/// The aggregation grid chosen for one query: either the 1-d histogram of
/// the aggregation column or the refined agg dimension of one pair.
struct AggGrid {
  const HistogramDim* dim = nullptr;
  PairView pair;               // valid when dim is a pair agg dimension
  size_t pair_pred_col = ~size_t{0};  // leaf column backing `pair`
  bool IsPair() const { return pair.valid(); }
};

/// A query compiled against one synopsis: everything the literal-mapping →
/// normalization → grid-selection stages of Fig. 7 produce, captured once
/// so repeated execution runs only coverage + weighting + aggregation. Of
/// the parsed AST it keeps only what execution reads (the aggregate and
/// COUNT(*)); the statement's one Query lives with its caller. Obtained
/// from AqpEngine::Compile (or Db::Prepare); executed with
/// AqpEngine::Execute(plan).
///
/// The plan holds pointers into the synopsis it was compiled against, so
/// it must not outlive that synopsis. A synopsis is read-only once built
/// or decoded, so a plan stays valid for the synopsis's whole lifetime;
/// a rebuilt or re-opened synopsis needs a new plan.
class CompiledQuery {
 public:
  CompiledQuery() = default;

  AggFunc func() const { return func_; }
  bool count_star() const { return count_star_; }
  /// Aggregation column index resolved against the synopsis.
  size_t agg_column() const { return agg_col_; }
  /// True when execution aggregates on a refined pairwise grid rather
  /// than the 1-d histogram.
  bool uses_pair_grid() const { return grid_.IsPair(); }
  bool grouped() const { return group_values_ > 0; }

  // Compiled state, read-only (the test oracle re-executes plans from it).
  /// Normalized WHERE clause, or nullptr when the query has none.
  const NormalizedPredicate* where() const {
    return where_.has_value() ? &*where_ : nullptr;
  }
  const AggGrid& grid() const { return grid_; }
  /// Consolidated same-column clip on the aggregation column, if any.
  const std::optional<IntervalSet>& agg_clip() const { return agg_clip_; }
  /// Single-column query (predicates only on the aggregation column).
  bool single_column() const { return single_column_; }
  /// GROUP BY column index and its number of codes (grouped plans only).
  size_t group_column() const { return group_col_; }
  uint64_t group_values() const { return group_values_; }

 private:
  friend class AqpEngine;

  AggFunc func_ = AggFunc::kCount;
  bool count_star_ = false;
  size_t agg_col_ = 0;
  std::optional<NormalizedPredicate> where_;  // normalized WHERE clause
  bool has_or_ = false;
  AggGrid grid_;
  /// Consolidated same-column clip on the aggregation column (copied out
  /// of the normalized tree at compile time; scalar queries only).
  std::optional<IntervalSet> agg_clip_;
  bool single_column_ = false;
  // GROUP BY state: group_values_ == 0 means not grouped.
  size_t group_col_ = 0;
  uint64_t group_values_ = 0;
  /// Transfer map for the per-value GROUP BY leaf (same shape as
  /// NormalizedPredicate::g2ta; empty when unused).
  std::vector<uint32_t> group_g2ta_;
};

/// Executes queries against a PairwiseHist synopsis. Apart from the
/// synopsis pointer the only state is a pool of reusable execution scratch
/// arenas; safe for concurrent use.
class AqpEngine {
 public:
  /// The synopsis must outlive the engine.
  explicit AqpEngine(const PairwiseHist* synopsis,
                     AqpEngineOptions options = {});
  ~AqpEngine();
  AqpEngine(AqpEngine&&) noexcept;
  AqpEngine& operator=(AqpEngine&&) noexcept;

  /// Compiles a parsed query: predicate normalization with same-column
  /// consolidation, aggregation-column resolution, grid selection. The
  /// returned plan can be executed any number of times.
  StatusOr<CompiledQuery> Compile(const Query& query) const;

  /// Executes a compiled plan (coverage + weighting + aggregation only).
  StatusOr<QueryResult> Execute(const CompiledQuery& plan) const;

  /// Executes a compiled plan into a caller-owned result, reusing its
  /// group storage: ExecutePartialBatchInto's body for a batch of one into
  /// pooled scratch, then a merge of that one part, which returns the
  /// part's own answer unchanged — all under one scratch lease. With a
  /// warm result object, steady-state scalar (non-GROUP-BY) execution
  /// performs zero heap allocations; grouped execution still builds
  /// per-group label strings.
  Status ExecuteInto(const CompiledQuery& plan, QueryResult* result) const;

  using PlanSpan = std::span<const CompiledQuery* const>;
  using OutSpan = std::span<PartialResult* const>;
  /// Per-segment execution of a batch, the engine's only partial entry
  /// point: coverage + weighting + Table-3 aggregation, emitted as
  /// mergeable sufficient statistics (see partial_agg.h) whose `value` is
  /// this synopsis's own finalized answer. out[i] gets one group per
  /// emitted label ("" for scalar queries); grouped execution omits groups
  /// with no estimated mass. Group slots are overwritten in place, so a
  /// warm out[i] keeps its storage.
  ///
  /// Scalar plans are grouped by aggregation grid and coverage/weighting
  /// is computed once per distinct normalized predicate set, the distinct
  /// weight tables living in one plan-major SoA block filled by a single
  /// batched Eq.-29 kernel call; only the cheap Table-3 aggregation then
  /// runs per plan. GROUP BY plans run one pipeline per group value and
  /// predicate-free COUNT(*) reads the row count. out[i] is BIT-IDENTICAL
  /// whatever batch plans[i] runs in, a batch of one included, on every
  /// kernel tier (asserted by tests/batch_test.cc).
  Status ExecutePartialBatchInto(PlanSpan plans, OutSpan out) const;

  /// Executes a parsed query (Compile + Execute).
  StatusOr<QueryResult> Execute(const Query& query) const;

  /// Parses and executes a SQL string. This is the engine's only ParseSql
  /// call site; everything funnels through Compile/Execute.
  StatusOr<QueryResult> ExecuteSql(const std::string& sql) const;

  const PairwiseHist& synopsis() const { return *ph_; }
  const AqpEngineOptions& options() const { return options_; }

 private:
  using Node = NormalizedPredicate;
  using Grid = AggGrid;

  /// Reusable per-execution scratch (arena, ExecuteInto's one-part
  /// partial, batch bookkeeping); leased from a per-engine pool so
  /// concurrent executions never share one.
  struct ExecScratch;
  using ScratchPool = ObjectPool<ExecScratch>;
  /// RAII lease of one ExecScratch (allocates only when the pool is dry).
  struct ScratchLease;

  StatusOr<Node> Normalize(const PredicateNode& node) const;
  static bool HasOr(const Node& node);
  /// Returns the consolidated interval set of a root-level conjunctive
  /// leaf on `agg_col`, or nullptr.
  static const IntervalSet* FindAggClip(const Node& node, size_t agg_col);

  static constexpr size_t kNoColumn = ~size_t{0};
  /// Aggregation grid for the predicate columns of `root` (may be null)
  /// plus `group_col` (kNoColumn when not grouped).
  Grid ChooseGrid(size_t agg_col, const Node* root, bool has_or,
                  size_t group_col) const;
  /// Compile support: grid bin → refined agg bin of the (agg_col, col)
  /// pair (empty when the leaf doesn't transfer), built by one merge walk
  /// over the two sorted edge arrays.
  std::vector<uint32_t> TransferMap(size_t agg_col, size_t col,
                                    const Grid& grid) const;
  void FillTransferMaps(Node* node, size_t agg_col, const Grid& grid) const;

  /// O(log k) COUNT shortcut (single same-column predicate whose pieces
  /// fully cover every touched bin); returns true and fills `out` when it
  /// applies.
  bool TryCountShortcutFast(const CompiledQuery& plan, AggResult* out) const;

  /// One batch group: scalar plans sharing a weight pipeline (defined in
  /// engine.cc).
  struct BatchGroup;
  /// Resolves the plans that need no weights — GROUP BY and
  /// predicate-free COUNT(*) through PartialInto, and COUNT shortcut hits
  /// — and groups the rest by (aggregation column, grid, value-equal
  /// normalized WHERE). Groups live in scratch.groups[0..scratch.n_groups)
  /// — pooled with the scratch so repeated batches, batches of one
  /// included, reuse the bookkeeping vector capacity and allocate nothing.
  void GroupBatchPlans(PlanSpan plans, OutSpan out,
                       ExecScratch& scratch) const;
  /// Weight stage for every group: carves one plan-major SoA block and
  /// fills all rows with a single batched Eq.-29 kernel call.
  /// Probability/weight spans live in the scratch arena.
  void WeightBatchGroups(PlanSpan plans, ExecScratch& scratch) const;
  /// ExecutePartialBatchInto's body over an already-leased scratch.
  void PartialBatchInto(PlanSpan plans, OutSpan out,
                        ExecScratch& scratch) const;

  /// Partial of a plan no batch group covers: a GROUP BY plan
  /// (ExecutePartialGroup per group value) or a predicate-free COUNT(*)
  /// (this synopsis's exact row count).
  void PartialInto(const CompiledQuery& plan, ExecScratch& scratch,
                   PartialResult* out) const;
  /// One GROUP BY value's partial over the scratch arena: the WHERE tree
  /// conjoined with `group_leaf` through the cell prefix index, localized
  /// coverage and range-restricted weighting, ending in Table-3
  /// aggregation plus the extra statistics the cross-segment merge needs.
  void ExecutePartialGroup(const CompiledQuery& plan, const Node& group_leaf,
                           ExecScratch& scratch, PartialAggregate* out) const;

  const PairwiseHist* ph_;
  AqpEngineOptions options_;
  /// Kernel table resolved once from options_.kernels at construction.
  const KernelOps* ks_;
  std::unique_ptr<ScratchPool> pool_;
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_QUERY_ENGINE_H_
