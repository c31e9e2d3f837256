#include "tests/oracle/reference_engine.h"

#include <algorithm>

#include "query/coverage.h"
#include "query/engine_internal.h"
#include "query/exec_scratch.h"
#include "query/sql_parser.h"

namespace pairwisehist {
namespace oracle {

using engine_internal::AggregateImpl;
using engine_internal::FormatGroupLabel;
using engine_internal::ResolveAggClip;
using engine_internal::ResolveSingle;
using engine_internal::WeightsInto;

namespace {

// Per-row sparse reduction. Reduces one aggregation bin's cells against
// per-pred-bin coverage values, reading each cell through PairView::Cell:
// fully-covered runs (β = β− = β+ = 1) contribute their mass as one exact
// integer sum, and only the few partial coverage bins around the runs are
// weighted cell by cell. The accumulation is plain sequential scalar —
// identical on every kernel tier — and it consumes the same coverage
// spans as the engine's all-rows ReduceRowsAll, which drives its events
// in this walk's order, so the two stay bit-equal.

/// Exact cell mass of aggregation bin `ta` over pred bins [b, e).
uint64_t RowMass(const PairView& pair, size_t ta, size_t b, size_t e) {
  uint64_t mass = 0;
  for (size_t tp = b; tp < e; ++tp) mass += pair.Cell(ta, tp);
  return mass;
}

/// Reduces one row against the coverage span: candidate segments bound
/// the walk (bins between segments have exactly zero coverage, so
/// scattered multi-piece predicates skip their gaps), and runs inside
/// them collapse to one exact mass each. Returns true when the row has
/// any cell in [cov_begin, cov_end).
bool ReduceRow(const PairView& pair, size_t ta, const CoverageSpan& cov,
               double acc[3]) {
  acc[0] = acc[1] = acc[2] = 0.0;
  if (RowMass(pair, ta, cov.begin, cov.end) == 0) return false;
  auto partial_bins = [&](size_t b, size_t e) {
    for (size_t tp = b; tp < e; ++tp) {
      uint64_t cell = pair.Cell(ta, tp);
      if (cell == 0) continue;
      double c = static_cast<double>(cell);
      acc[0] += c * cov.beta[tp];
      acc[1] += c * cov.lo[tp];
      acc[2] += c * cov.hi[tp];
    }
  };
  size_t r = 0;
  auto segment = [&](size_t sb, size_t se) {
    size_t t = sb;
    for (; r < cov.n_runs && cov.runs[2 * r] < se; ++r) {
      const size_t f0 = cov.runs[2 * r];
      const size_t f1 = cov.runs[2 * r + 1];
      partial_bins(t, f0);
      uint64_t mass = RowMass(pair, ta, f0, f1);
      if (mass != 0) {
        double total = static_cast<double>(mass);
        acc[0] += total;
        acc[1] += total;
        acc[2] += total;
      }
      t = f1;
    }
    partial_bins(t, se);
  };
  if (cov.n_segs == 0) {
    segment(cov.begin, cov.end);
  } else {
    for (size_t s = 0; s < cov.n_segs; ++s) {
      segment(cov.segs[2 * s], cov.segs[2 * s + 1]);
    }
  }
  return true;
}

}  // namespace

double Weightings::Total() const {
  double s = 0;
  for (double v : w) s += v;
  return s;
}

ReferenceEngine::ReferenceEngine(const PairwiseHist* synopsis,
                                 AqpEngineOptions options)
    : ph_(synopsis),
      compiler_(synopsis, options),
      ks_(&GetKernels(options.kernels)) {}

// ---------------------------------------------------------------------------
// Per-bin satisfaction probabilities over the whole grid.

ReferenceEngine::Prob ReferenceEngine::LeafProb(
    size_t agg_col, const NormalizedPredicate& leaf,
    const AggGrid& grid) const {
  const HistogramDim& gdim = *grid.dim;
  const size_t k = gdim.NumBins();
  Prob prob;
  prob.p.assign(k, 0.0);
  prob.lo.assign(k, 0.0);
  prob.hi.assign(k, 0.0);

  if (leaf.column == agg_col) {
    // Same-column predicate: coverage over the aggregation grid itself.
    Coverage cov = ComputeCoverage(gdim, leaf.intervals, ph_->min_points(),
                                   ph_->critical_cache());
    prob.p = cov.beta;
    prob.lo = cov.lo;
    prob.hi = cov.hi;
    return prob;
  }

  if (grid.IsPair() && leaf.column == grid.pair_pred_col) {
    // The grid is this leaf's own pair: exact per-grid-bin probabilities
    // from the cell matrix (Eq. 27 on the refined grid), each grid bin's
    // sparse row reduced by ReduceRow over the same coverage values and
    // run descriptors the engine's all-rows reduction consumes.
    const HistogramDim& pred_dim = grid.pair.pred_dim();
    const size_t kp = pred_dim.NumBins();
    std::vector<double> cbeta(kp, 0.0), clo(kp, 0.0), chi(kp, 0.0);
    std::vector<uint32_t> cruns(2 * leaf.intervals.pieces.size());
    std::vector<uint32_t> csegs(2 * leaf.intervals.pieces.size());
    CoverageSpan cov;
    cov.beta = cbeta.data();
    cov.lo = clo.data();
    cov.hi = chi.data();
    cov.runs = cruns.empty() ? nullptr : cruns.data();
    cov.segs = csegs.empty() ? nullptr : csegs.data();
    cov.max_runs = cov.max_segs = leaf.intervals.pieces.size();
    ComputeCoverageInto(pred_dim, leaf.intervals, ph_->min_points(),
                        ph_->critical_cache(), &cov);
    for (size_t g = 0; g < k; ++g) {
      double acc[3];
      if (!ReduceRow(grid.pair, g, cov, acc)) {
        continue;  // prob vectors are zero-initialized
      }
      prob.p[g] = acc[0];
      prob.lo[g] = acc[1];
      prob.hi[g] = acc[2];
    }
    ks_->norm_prob3(gdim.counts.data(), prob.p.data(), prob.lo.data(),
                    prob.hi.data(), prob.p.data(), prob.lo.data(),
                    prob.hi.data(), 0, k);
    return prob;
  }

  // Cross-column leaf on a different pair: compute the conditional
  // probability per refined bin of THAT pair's agg dimension (Eq. 27), then
  // transfer onto the grid by locating each grid bin inside the pair's agg
  // dimension (both are refinements of the same 1-d edges; a grid bin that
  // straddles pair bins takes the value at its midpoint). This keeps the
  // full resolution of every pairwise histogram instead of collapsing
  // non-grid leaves to 1-d-parent granularity.
  PairView pair = ph_->GetPair(agg_col, leaf.column);
  const HistogramDim& pred_dim = pair.pred_dim();
  const HistogramDim& agg_dim = pair.agg_dim();
  const size_t kp = pred_dim.NumBins();
  std::vector<double> cbeta(kp, 0.0), clo(kp, 0.0), chi(kp, 0.0);
  std::vector<uint32_t> cruns(2 * leaf.intervals.pieces.size());
  std::vector<uint32_t> csegs(2 * leaf.intervals.pieces.size());
  CoverageSpan cov;
  cov.beta = cbeta.data();
  cov.lo = clo.data();
  cov.hi = chi.data();
  cov.runs = cruns.empty() ? nullptr : cruns.data();
  cov.segs = csegs.empty() ? nullptr : csegs.data();
  cov.max_runs = cov.max_segs = leaf.intervals.pieces.size();
  ComputeCoverageInto(pred_dim, leaf.intervals, ph_->min_points(),
                      ph_->critical_cache(), &cov);
  const size_t ka = agg_dim.NumBins();
  std::vector<double> pa(ka, 0.0), pa_lo(ka, 0.0), pa_hi(ka, 0.0);
  // Parent-level aggregation (exact null semantics) and the per-parent
  // fraction of 1-d rows that have the predicate column non-null — the
  // refined per-bin probabilities are conditioned on "both non-null" and
  // must be rescaled by that fraction before applying to full 1-d counts
  // (rows whose predicate column is null never satisfy the predicate).
  const HistogramDim& agg1d = ph_->hist1d(agg_col);
  const size_t k1 = agg1d.NumBins();
  std::vector<double> num1(k1, 0.0), num1_lo(k1, 0.0), num1_hi(k1, 0.0);
  std::vector<double> pair_rows1(k1, 0.0);
  for (size_t ta = 0; ta < ka; ++ta) {
    double acc[3];
    ReduceRow(pair, ta, cov, acc);
    double h = static_cast<double>(agg_dim.counts[ta]);
    pa[ta] = acc[0];
    pa_lo[ta] = acc[1];
    pa_hi[ta] = acc[2];
    size_t parent = agg_dim.parent.empty() ? ta : agg_dim.parent[ta];
    num1[parent] += acc[0];
    num1_lo[parent] += acc[1];
    num1_hi[parent] += acc[2];
    pair_rows1[parent] += h;
  }
  ks_->norm_prob3(agg_dim.counts.data(), pa.data(), pa_lo.data(),
                  pa_hi.data(), pa.data(), pa_lo.data(), pa_hi.data(), 0,
                  ka);
  std::vector<double> p1(k1), p1_lo(k1), p1_hi(k1);
  ks_->norm_prob3(agg1d.counts.data(), num1.data(), num1_lo.data(),
                  num1_hi.data(), p1.data(), p1_lo.data(), p1_hi.data(), 0,
                  k1);
  std::vector<double> non_null_frac(k1, 1.0);
  for (size_t t = 0; t < k1; ++t) {
    double h = static_cast<double>(agg1d.counts[t]);
    if (h <= 0) continue;
    non_null_frac[t] = std::clamp(pair_rows1[t] / h, 0.0, 1.0);
  }

  for (size_t g = 0; g < k; ++g) {
    double mid = (gdim.edges[g] + gdim.edges[g + 1]) / 2.0;
    size_t ta = agg_dim.BinIndex(mid);
    size_t parent = gdim.parent.empty() ? g : gdim.parent[g];
    if (agg_dim.counts[ta] > 0) {
      double scale = non_null_frac[parent];
      prob.p[g] = pa[ta] * scale;
      prob.lo[g] = pa_lo[ta] * scale;
      prob.hi[g] = pa_hi[ta] * scale;
    } else {
      prob.p[g] = p1[parent];
      prob.lo[g] = p1_lo[parent];
      prob.hi[g] = p1_hi[parent];
    }
  }
  return prob;
}

ReferenceEngine::Prob ReferenceEngine::EvalNode(
    size_t agg_col, const NormalizedPredicate& node,
    const AggGrid& grid) const {
  if (node.type == NormalizedPredicate::Type::kLeaf) return LeafProb(agg_col, node, grid);

  const size_t k = grid.dim->NumBins();
  Prob acc;
  const bool is_and = node.type == NormalizedPredicate::Type::kAnd;
  // AND accumulates the product; OR accumulates the complement product
  // (Eq. 28), both starting at 1.
  acc.p.assign(k, 1.0);
  acc.lo.assign(k, 1.0);
  acc.hi.assign(k, 1.0);
  for (const NormalizedPredicate& child : node.children) {
    Prob cp = EvalNode(agg_col, child, grid);
    for (size_t t = 0; t < k; ++t) {
      if (is_and) {
        acc.p[t] *= cp.p[t];
        acc.lo[t] *= cp.lo[t];
        acc.hi[t] *= cp.hi[t];
      } else {
        acc.p[t] *= 1.0 - cp.p[t];
        acc.lo[t] *= 1.0 - cp.hi[t];  // complement swaps the bounds
        acc.hi[t] *= 1.0 - cp.lo[t];
      }
    }
  }
  if (!is_and) {
    for (size_t t = 0; t < k; ++t) {
      acc.p[t] = 1.0 - acc.p[t];
      double lo = 1.0 - acc.hi[t];
      double hi = 1.0 - acc.lo[t];
      acc.lo[t] = lo;
      acc.hi[t] = hi;
    }
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Weightings.

Weightings ReferenceEngine::WeightsFromProb(const HistogramDim& dim,
                                            const Prob& prob) const {
  const size_t k = dim.NumBins();
  Weightings wt;
  wt.w.resize(k);
  wt.lo.resize(k);
  wt.hi.resize(k);
  ProbTable view;
  view.p = const_cast<double*>(prob.p.data());
  view.lo = const_cast<double*>(prob.lo.data());
  view.hi = const_cast<double*>(prob.hi.data());
  view.begin = 0;
  view.end = k;
  WeightTable out{wt.w.data(), wt.lo.data(), wt.hi.data(), 0, k};
  WeightsInto(*ph_, dim, view, out, *ks_);
  return wt;
}

StatusOr<Weightings> ReferenceEngine::ComputeWeightings(
    size_t agg_col, const Query& query) const {
  AggGrid grid;
  grid.dim = &ph_->hist1d(agg_col);  // fixed 1-d layout
  const size_t k = grid.dim->NumBins();
  Prob prob;
  if (query.where.has_value()) {
    PH_ASSIGN_OR_RETURN(CompiledQuery plan, compiler_.Compile(query));
    prob = EvalNode(agg_col, *plan.where(), grid);
  } else {
    prob.p.assign(k, 1.0);
    prob.lo.assign(k, 1.0);
    prob.hi.assign(k, 1.0);
  }
  return WeightsFromProb(*grid.dim, prob);
}

Weightings ReferenceEngine::ComputeWeights(
    const CompiledQuery& plan,
    const NormalizedPredicate* extra_group_leaf) const {
  const size_t agg_col = plan.agg_column();
  const AggGrid& grid = plan.grid();
  const size_t k = grid.dim->NumBins();

  // Satisfaction probabilities: the normalized WHERE tree, ANDed with the
  // per-value group leaf. The conjunction distributes over the per-bin
  // products of Eq. 28, so evaluating the two factors separately is
  // identical to evaluating one combined tree.
  Prob prob;
  if (plan.where() != nullptr) {
    prob = EvalNode(agg_col, *plan.where(), grid);
  } else {
    prob.p.assign(k, 1.0);
    prob.lo.assign(k, 1.0);
    prob.hi.assign(k, 1.0);
  }
  if (extra_group_leaf != nullptr) {
    Prob gp = EvalNode(agg_col, *extra_group_leaf, grid);
    for (size_t t = 0; t < k; ++t) {
      prob.p[t] *= gp.p[t];
      prob.lo[t] *= gp.lo[t];
      prob.hi[t] *= gp.hi[t];
    }
  }
  return WeightsFromProb(*grid.dim, prob);
}

// ---------------------------------------------------------------------------
// Execution.

AggResult ReferenceEngine::ExecuteScalar(
    const CompiledQuery& plan,
    const NormalizedPredicate* extra_group_leaf) const {
  const size_t agg_col = plan.agg_column();
  const AggGrid& grid = plan.grid();
  const size_t k = grid.dim->NumBins();

  Weightings wt = ComputeWeights(plan, extra_group_leaf);
  const IntervalSet* agg_clip =
      ResolveAggClip(plan.agg_clip(), extra_group_leaf, agg_col);
  const bool single =
      ResolveSingle(plan.single_column(), extra_group_leaf, agg_col);
  ExecArena arena;
  WeightTable view{wt.w.data(), wt.lo.data(), wt.hi.data(), 0, k};
  return AggregateImpl(*ph_, *ks_, plan.func(), agg_col, grid, view, single,
                       agg_clip, arena);
}

StatusOr<QueryResult> ReferenceEngine::Execute(
    const CompiledQuery& plan) const {
  QueryResult result;
  if (!plan.grouped()) {
    AggResult agg;
    if (plan.count_star() && plan.where() == nullptr) {
      // COUNT(*) with no predicate: exact row count.
      agg.estimate = agg.lower = agg.upper =
          static_cast<double>(ph_->total_rows());
    } else {
      agg = ExecuteScalar(plan, nullptr);
    }
    result.groups.push_back(QueryResult::Group{std::string(), agg});
    return result;
  }

  const ColumnTransform& tr = ph_->transform(plan.group_column());
  for (uint64_t code = 1; code <= plan.group_values(); ++code) {
    NormalizedPredicate leaf;
    leaf.type = NormalizedPredicate::Type::kLeaf;
    leaf.column = plan.group_column();
    leaf.intervals = IntervalSet::Of(static_cast<double>(code),
                                     static_cast<double>(code));
    AggResult agg = ExecuteScalar(plan, &leaf);
    bool empty_count =
        plan.func() == AggFunc::kCount && agg.estimate <= 0.5;
    if (agg.empty_selection || empty_count) continue;
    result.groups.push_back(
        QueryResult::Group{FormatGroupLabel(tr, code), agg});
  }
  return result;
}

StatusOr<QueryResult> ReferenceEngine::Execute(const Query& query) const {
  PH_ASSIGN_OR_RETURN(CompiledQuery plan, compiler_.Compile(query));
  return Execute(plan);
}

StatusOr<QueryResult> ReferenceEngine::ExecuteSql(
    const std::string& sql) const {
  PH_ASSIGN_OR_RETURN(Query q, ParseSql(sql));
  return Execute(q);
}

}  // namespace oracle
}  // namespace pairwisehist
