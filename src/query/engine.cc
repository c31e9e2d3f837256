#include "query/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>

#include "common/stats.h"
#include "query/engine_internal.h"
#include "query/exec_scratch.h"
#include "query/sql_parser.h"

namespace pairwisehist {

namespace {

constexpr double kWeightEps = 1e-9;
const double kNaN = std::numeric_limits<double>::quiet_NaN();

// Eq. 29's two-sided 98% normal quantile, hoisted out of the per-call path
// (it was recomputed per execution via Acklam's approximation + a Halley
// refinement step).
double Z99() {
  static const double z = NormalQuantile(0.99);
  return z;
}

// Effective per-bin value interval and midpoint after intersecting the bin
// with the aggregation column's own conjunctive predicate (within-bin
// uniformity model). Falls back to the raw metadata when there is no clip
// or no overlap.
struct BinVals {
  double v_lo;
  double v_hi;
  double mid;
  /// Share of the bin's integer-uniform value range the clip keeps; 1 when
  /// the clip does not cut the bin.
  double kept = 1.0;
};

BinVals EffectiveBin(const HistogramDim& hist, size_t t,
                     const IntervalSet* clip) {
  BinVals out{hist.v_min[t], hist.v_max[t], hist.Midpoint(t)};
  if (clip == nullptr || clip->IsAll() || clip->Empty()) return out;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  double total_len = 0, weighted = 0;
  for (const auto& piece : clip->pieces) {
    double a = std::max(piece.first, out.v_lo);
    double b = std::min(piece.second, out.v_hi);
    if (b < a) continue;
    double len = b - a + 1.0;  // integer-uniform model
    total_len += len;
    weighted += len * (a + b) / 2.0;
    lo = std::min(lo, a);
    hi = std::max(hi, b);
  }
  if (total_len <= 0) return out;  // no overlap: keep raw metadata
  out.kept = total_len / (out.v_hi - out.v_lo + 1.0);
  out.v_lo = lo;
  out.v_hi = hi;
  out.mid = weighted / total_len;
  return out;
}

/// Eq. 29 widening parameters, shared by every weighting of one synopsis.
struct WidenParams {
  bool widen = false;
  double z = 0.0;
  double fpc = 0.0;
};

WidenParams WidenParamsOf(const PairwiseHist& ph) {
  WidenParams wp;
  const double rho = ph.sampling_ratio();
  const double n_total = static_cast<double>(ph.total_rows());
  const double n_sample = static_cast<double>(ph.sample_rows());
  wp.widen = rho < 1.0 && n_total > 1;
  wp.z = Z99();
  wp.fpc = wp.widen ? (n_total - n_sample) / (n_total - 1.0) : 0.0;
  return wp;
}

/// One plan pipeline's slice of a batched weighting call.
WeightRow MakeWeightRow(const HistogramDim& dim, const ProbTable& prob,
                        const WeightTable& wt) {
  WeightRow row;
  row.h = dim.counts.data();
  row.p = prob.p;
  row.pl = prob.lo;
  row.ph = prob.hi;
  row.w = wt.w;
  row.lo = wt.lo;
  row.hi = wt.hi;
  row.begin = prob.begin;
  row.end = prob.end;
  row.runs = prob.runs;
  row.n_runs = prob.n_runs;
  return row;
}

}  // namespace

// ---------------------------------------------------------------------------
// Stages shared with the test oracle (declared in engine_internal.h).
//
// Execution works on range-restricted views (exec_scratch.h): bins outside
// [begin, end) are implicitly exactly zero, every accumulation only adds
// zero terms for them, and the kernels' phase-aligned lane semantics
// (common/simd.h) make adding those zeros an exact identity. Restricting
// the loops therefore leaves every result identical to a full scan — on
// every kernel tier, which is what keeps the engine bit-equal to the
// oracle's dense [0, k) scans.

namespace engine_internal {

std::string FormatGroupLabel(const ColumnTransform& tr, uint64_t code) {
  if (tr.type == DataType::kCategorical) {
    auto name = tr.DecodeCategory(code);
    if (name.ok()) return name.value();
  }
  double raw = tr.Decode(code);
  char buf[64];
  if (raw == static_cast<long long>(raw)) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(raw));
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", raw);
  }
  return buf;
}

// A WHERE-level clip wins because it precedes the group leaf in the
// combined tree.
const IntervalSet* ResolveAggClip(const std::optional<IntervalSet>& clip,
                                  const NormalizedPredicate* extra_group_leaf,
                                  size_t agg_col) {
  if (clip.has_value()) return &*clip;
  if (extra_group_leaf != nullptr && extra_group_leaf->column == agg_col) {
    return &extra_group_leaf->intervals;
  }
  return nullptr;
}

bool ResolveSingle(bool plan_single,
                   const NormalizedPredicate* extra_group_leaf,
                   size_t agg_col) {
  return plan_single && (extra_group_leaf == nullptr ||
                         extra_group_leaf->column == agg_col);
}

// Aggregation (Table 3) over the touched range of the weightings.

AggResult AggregateImpl(const PairwiseHist& ph, const KernelOps& ks,
                        AggFunc func, size_t agg_col, const AggGrid& grid,
                        const WeightTable& wt, bool single_column,
                        const IntervalSet* agg_clip, ExecArena& arena) {
  const HistogramDim& hist = *grid.dim;
  const ColumnTransform& tr = ph.transform(agg_col);
  const size_t k = hist.NumBins();
  const size_t rb = wt.begin;
  const size_t re = wt.end;
  const double rho = ph.sampling_ratio();
  const uint64_t m_points = ph.min_points();

  AggResult r;
  if (func == AggFunc::kCount) {
    // Fused single-pass totals (w, w−, w+ reduced together).
    double tot[3];
    ks.sum3(wt.w, wt.lo, wt.hi, rb, re, tot);
    r.estimate = tot[0] / rho;
    r.lower = tot[1] / rho;
    r.upper = tot[2] / rho;
    r.empty_selection = tot[0] <= kWeightEps;
    return r;
  }
  double total = ks.sum(wt.w, rb, re);
  if (total <= kWeightEps) {
    r.empty_selection = true;
    r.estimate = r.lower = r.upper = kNaN;
    return r;
  }

  const bool clip_active =
      agg_clip != nullptr && !agg_clip->IsAll() && !agg_clip->Empty();

  // Effective per-bin values, midpoints and weighted-centre bounds in the
  // code domain. Without a same-column clip these are query-independent
  // and read straight from the dimension's centre cache (filled at
  // FinishExecIndex); with a clip they are materialized per query over the
  // touched range only (untouched bins carry zero weight).
  const double* v_lo;
  const double* v_hi;
  const double* c;
  const double* c_lo;
  const double* c_hi;
  if (!clip_active) {
    v_lo = hist.v_min.data();
    v_hi = hist.v_max.data();
    c = hist.centre_mid.data();
    c_lo = hist.centre_lo.data();
    c_hi = hist.centre_hi.data();
  } else {
    double* e_v_lo = arena.Alloc(k);
    double* e_v_hi = arena.Alloc(k);
    double* e_c = arena.Alloc(k);
    double* e_c_lo = arena.Alloc(k);
    double* e_c_hi = arena.Alloc(k);
    // Recomputes one bin the clip actually cuts (the raw Theorem-1 bounds
    // are query-independent: the centre cache supplies them). A cut bin's
    // estimate uses the clipped midpoint, so its bounds are the raw bin's
    // deviations from its own midpoint, scaled to the kept share of the
    // bin and centred on the clipped midpoint: lower <= centre <= upper by
    // construction.
    auto slow_bin = [&](size_t t) {
      BinVals bv = EffectiveBin(hist, t, agg_clip);
      e_v_lo[t] = bv.v_lo;
      e_v_hi[t] = bv.v_hi;
      e_c[t] = bv.mid;
      const CentreBounds cb{hist.centre_lo[t], hist.centre_hi[t]};
      if (bv.kept < 1.0) {
        const double raw_mid = hist.Midpoint(t);
        e_c_lo[t] = std::clamp(bv.mid - (raw_mid - cb.lo) * bv.kept,
                               bv.v_lo, bv.mid);
        e_c_hi[t] = std::clamp(bv.mid + (cb.hi - raw_mid) * bv.kept, bv.mid,
                               bv.v_hi);
      } else {
        e_c_lo[t] = std::clamp(cb.lo, bv.v_lo, bv.v_hi);
        e_c_hi[t] = std::clamp(cb.hi, e_c_lo[t], bv.v_hi);
      }
    };
    // A bin fully inside one clip piece (or outside every piece) keeps
    // its raw metadata, so copy the cache wholesale and recompute only the
    // O(pieces) boundary bins the clip cuts. v_min and v_max are strictly
    // ascending across bins, so the overlap and fully-inside bin ranges of
    // each piece are binary searches.
    std::copy(hist.v_min.begin() + rb, hist.v_min.begin() + re, e_v_lo + rb);
    std::copy(hist.v_max.begin() + rb, hist.v_max.begin() + re, e_v_hi + rb);
    std::copy(hist.centre_mid.begin() + rb, hist.centre_mid.begin() + re,
              e_c + rb);
    std::copy(hist.centre_lo.begin() + rb, hist.centre_lo.begin() + re,
              e_c_lo + rb);
    std::copy(hist.centre_hi.begin() + rb, hist.centre_hi.begin() + re,
              e_c_hi + rb);
    for (const auto& piece : agg_clip->pieces) {
      // Bins whose values overlap the piece at all / lie fully inside.
      size_t o0 = static_cast<size_t>(
          std::lower_bound(hist.v_max.begin() + rb, hist.v_max.begin() + re,
                           piece.first) -
          hist.v_max.begin());
      size_t o1 = static_cast<size_t>(
          std::upper_bound(hist.v_min.begin() + rb, hist.v_min.begin() + re,
                           piece.second) -
          hist.v_min.begin());
      size_t f0 = static_cast<size_t>(
          std::lower_bound(hist.v_min.begin() + o0, hist.v_min.begin() + o1,
                           piece.first) -
          hist.v_min.begin());
      size_t f1 = static_cast<size_t>(
          std::upper_bound(hist.v_max.begin() + f0, hist.v_max.begin() + o1,
                           piece.second) -
          hist.v_max.begin());
      for (size_t t = o0; t < f0; ++t) slow_bin(t);
      for (size_t t = std::max(f0, f1); t < o1; ++t) slow_bin(t);
    }
    v_lo = e_v_lo;
    v_hi = e_v_hi;
    c = e_c;
    c_lo = e_c_lo;
    c_hi = e_c_hi;
  }
  auto decode = [&](double code) { return tr.Decode(code); };

  switch (func) {
    case AggFunc::kSum: {
      // Decode the touched centres to the raw domain once, then one dot
      // product for the estimate and one fused corner-bound pass (safe
      // also when decoded values are negative).
      double* dm = arena.Alloc(k);
      double* dlo = arena.Alloc(k);
      double* dhi = arena.Alloc(k);
      for (size_t t = rb; t < re; ++t) {
        dm[t] = decode(c[t]);
        dlo[t] = decode(c_lo[t]);
        dhi[t] = decode(c_hi[t]);
      }
      double bounds[2];
      ks.corner_bounds(wt.lo, wt.hi, dlo, dhi, rb, re, bounds);
      r.estimate = ks.dot(wt.w, dm, rb, re) / rho;
      r.lower = bounds[0] / rho;
      r.upper = bounds[1] / rho;
      return r;
    }
    case AggFunc::kAvg: {
      double num = ks.dot(wt.w, c, rb, re);
      r.estimate = decode(num / total);
      // Evaluate both weighting extrema (w• placeholder in Table 3) with
      // one fused {Σw, Σw·c−, Σw·c+} pass each.
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (const double* wv : {wt.lo, wt.hi}) {
        double o[3];
        ks.dot3(wv, c_lo, c_hi, rb, re, o);
        if (o[0] > kWeightEps) {
          lo = std::min(lo, o[1] / o[0]);
          hi = std::max(hi, o[2] / o[0]);
        }
      }
      if (!std::isfinite(lo)) {
        lo = hi = num / total;
      }
      // Every bin has c− <= c <= c+, but the extreme weightings reweight
      // the bins: when w− keeps relatively more mass on high-centre bins
      // than w does, Σw−c−/Σw− lands above the estimate Σwc/Σw (seen on
      // multi-predicate statements; AnswerContract in property_test.cc).
      // Widening to include the estimate keeps lower <= estimate <= upper.
      r.lower = decode(std::min(lo, num / total));
      r.upper = decode(std::max(hi, num / total));
      return r;
    }
    case AggFunc::kVar: {
      // Second-moment values (within-bin uniform term included) once,
      // then two dots against the weights.
      double* m2 = arena.Alloc(k);
      for (size_t t = rb; t < re; ++t) {
        double within = 0.0;
        if (hist.unique[t] > 1) {
          double span = v_hi[t] - v_lo[t];
          within = span * span / 12.0;
        }
        m2[t] = c[t] * c[t] + within;
      }
      double num1 = ks.dot(wt.w, c, rb, re);
      double num2 = ks.dot(wt.w, m2, rb, re);
      double mean = num1 / total;
      double var_code = std::max(0.0, num2 / total - mean * mean);
      double scale2 = tr.scale * tr.scale;
      r.estimate = var_code / scale2;
      // ξ∓ per Eqs. 38–39 around the estimated (code-domain) mean.
      double* xi_lo = arena.Alloc(k);
      double* xi_hi = arena.Alloc(k);
      for (size_t t = rb; t < re; ++t) {
        if (v_hi[t] < mean) {
          xi_lo[t] = v_hi[t];
        } else if (v_lo[t] > mean) {
          xi_lo[t] = v_lo[t];
        } else {
          xi_lo[t] = mean;
        }
        xi_hi[t] = (std::fabs(mean - v_lo[t]) > std::fabs(v_hi[t] - mean))
                       ? v_lo[t]
                       : v_hi[t];
      }
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (const double* wv : {wt.lo, wt.hi}) {
        // Fused {Σw, Σw·ξ, Σw·ξ²} per extreme.
        double mo_lo[3];
        ks.moments(wv, xi_lo, rb, re, mo_lo);
        double tw = mo_lo[0];
        if (tw <= kWeightEps) continue;
        double mo_hi[3];
        ks.moments(wv, xi_hi, rb, re, mo_hi);
        lo = std::min(lo,
                      mo_lo[2] / tw - (mo_lo[1] / tw) * (mo_lo[1] / tw));
        hi = std::max(hi,
                      mo_hi[2] / tw - (mo_hi[1] / tw) * (mo_hi[1] / tw));
      }
      if (!std::isfinite(lo)) {
        lo = hi = var_code;
      }
      r.lower = std::max(0.0, std::min(lo / scale2, r.estimate));
      r.upper = std::max(r.estimate, hi / scale2);
      return r;
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const bool is_min = func == AggFunc::kMin;
      // Masked search kernels: first (MIN) / last (MAX) bin whose weight
      // clears the threshold. Exact comparisons, identical on every tier.
      auto first_idx = [&](const double* wv, double threshold) -> int {
        size_t t = is_min ? ks.find_first_gt(wv, rb, re, threshold)
                          : ks.find_last_gt(wv, rb, re, threshold);
        return t == kKernelNotFound ? -1 : static_cast<int>(t);
      };

      int t_est = first_idx(wt.w, kWeightEps);
      if (t_est < 0) {
        r.empty_selection = true;
        r.estimate = r.lower = r.upper = kNaN;
        return r;
      }
      {
        size_t t = static_cast<size_t>(t_est);
        bool flip = single_column && hist.unique[t] == 2 &&
                    wt.w[t] < static_cast<double>(hist.counts[t]) / 2.0;
        double v = is_min ? (flip ? v_hi[t] : v_lo[t])
                          : (flip ? v_lo[t] : v_hi[t]);
        r.estimate = decode(v);
      }
      // Outer bound (MIN lower / MAX upper): widest plausible bin from w+.
      {
        int ti = first_idx(wt.hi, kWeightEps);
        size_t t =
            ti < 0 ? static_cast<size_t>(t_est) : static_cast<size_t>(ti);
        bool flip = single_column && hist.unique[t] == 2 &&
                    wt.hi[t] < static_cast<double>(hist.counts[t]) / 5.0;
        double v = is_min ? (flip ? v_hi[t] : v_lo[t])
                          : (flip ? v_lo[t] : v_hi[t]);
        if (is_min) {
          r.lower = decode(v);
        } else {
          r.upper = decode(v);
        }
      }
      // Inner bound (MIN upper / MAX lower): first bin with confident
      // weight (w− > 1/2), tightened by fully covered sub-bins (Eq. 32).
      {
        int ti = first_idx(wt.lo, 0.5);
        size_t t =
            ti < 0 ? static_cast<size_t>(t_est) : static_cast<size_t>(ti);
        double v;
        if (single_column && hist.unique[t] > 2 &&
            hist.counts[t] >= m_points) {
          int s = TerrellScottSubBins(hist.unique[t]);
          double delta = (v_hi[t] - v_lo[t]) / s;
          double a = std::floor(s * wt.lo[t] /
                                static_cast<double>(hist.counts[t]));
          v = is_min ? v_hi[t] - a * delta : v_lo[t] + a * delta;
        } else {
          v = is_min ? v_hi[t] : v_lo[t];
        }
        if (is_min) {
          r.upper = decode(v);
        } else {
          r.lower = decode(v);
        }
      }
      if (r.lower > r.upper) std::swap(r.lower, r.upper);
      r.lower = std::min(r.lower, r.estimate);
      r.upper = std::max(r.upper, r.estimate);
      return r;
    }
    case AggFunc::kMedian: {
      // Rule changes here (half-mass ties, unique==2, bound walk) must be
      // mirrored in MergeMedian (partial_agg.cc), which reimplements this
      // walk over cross-segment raw-domain bins.
      //
      // The CDF walk is an inclusive prefix scan (kernel; on the scalar
      // tier it is the exact sequential accumulation this code used to
      // do inline) followed by a binary search for the half-mass point:
      // weights are non-negative so the scan is non-decreasing, and
      // lower_bound finds the first bin with prefix >= total/2 — the same
      // bin the sequential `acc >= tw/2` walk stops at.
      // The half-mass comparison carries a 1e-9 relative tie tolerance:
      // kernel tiers reassociate the scan (≤ ~n·ulp noise), and without
      // slack a half-mass point that lands exactly on a bin boundary
      // would select adjacent bins on different tiers, jumping the
      // reported bounds by a whole bin.
      auto median_bin = [&](const double* wv, double* prefix) -> int {
        ks.prefix_sum(wv, rb, re, prefix);
        double tw = prefix[re - 1];
        if (tw <= kWeightEps) return -1;
        double target = tw / 2.0 - 1e-9 * tw;
        size_t idx = static_cast<size_t>(
            std::lower_bound(prefix + rb, prefix + re, target) - prefix);
        if (idx >= re) idx = re - 1;
        return static_cast<int>(idx);
      };
      double* pw = arena.Alloc(k);
      int t_est = median_bin(wt.w, pw);
      if (t_est < 0) {
        r.empty_selection = true;
        r.estimate = r.lower = r.upper = kNaN;
        return r;
      }
      size_t t = static_cast<size_t>(t_est);
      // Scan-consistent total and mass before the median bin (on the
      // scalar tier these equal `total` / the old partial re-sum exactly).
      double twm = pw[re - 1];
      double before = t > rb ? pw[t - 1] : 0.0;
      double f = (twm / 2.0 - before) / std::max(wt.w[t], kWeightEps);
      f = std::clamp(f, 0.0, 1.0);
      if (hist.unique[t] == 2) {
        r.estimate = decode(f < 0.5 ? v_lo[t] : v_hi[t]);
      } else {
        r.estimate = decode(v_lo[t] + (v_hi[t] - v_lo[t]) * f);
      }
      int t_lo = t_est, t_hi = t_est;
      for (const double* wv : {wt.lo, wt.hi}) {
        int tb = median_bin(wv, pw);
        if (tb >= 0) {
          t_lo = std::min(t_lo, tb);
          t_hi = std::max(t_hi, tb);
        }
      }
      r.lower = decode(v_lo[static_cast<size_t>(t_lo)]);
      r.upper = decode(v_hi[static_cast<size_t>(t_hi)]);
      r.lower = std::min(r.lower, r.estimate);
      r.upper = std::max(r.upper, r.estimate);
      return r;
    }
    case AggFunc::kCount:
      break;  // handled above
  }
  return r;
}

// Eq. 29 weightings over the touched range (untouched bins carry exactly
// zero weight). Fully-covered runs collapse to the bin counts themselves —
// at β = 1 the widening variance term is exactly zero and every clamp is
// the identity, so weights_batch's bulk run copy reproduces the general
// formula bit-for-bit while skipping its arithmetic.
void WeightsInto(const PairwiseHist& ph, const HistogramDim& dim,
                 const ProbTable& prob, const WeightTable& wt,
                 const KernelOps& ks) {
  const WidenParams wp = WidenParamsOf(ph);
  WeightRow row = MakeWeightRow(dim, prob, wt);
  // Single-row batch: the kernel's per-row walk is exactly the run walk
  // this function used to do inline, so per-group and batched weightings
  // share one weighting code path on every tier.
  ks.weights_batch(&row, 1, wp.z, wp.fpc, wp.widen ? 1 : 0);
}


}  // namespace engine_internal

using engine_internal::AggregateImpl;
using engine_internal::FormatGroupLabel;
using engine_internal::ResolveAggClip;
using engine_internal::ResolveSingle;
using engine_internal::WeightsInto;

namespace {

// Fills a partial whose answer is a count (the exact predicate-free
// COUNT(*), the O(log k) COUNT shortcut, or COUNT's Table-3 rule): the
// count is its own answer.
void FillPartialFromCount(const AggResult& r, bool empty,
                          PartialAggregate* out) {
  out->count = r.estimate;
  out->count_lo = r.lower;
  out->count_hi = r.upper;
  out->empty = empty;
  out->value = r;
  out->mean = AggResult{};
  out->median_bins.clear();
}

// Fills mergeable sufficient statistics (see partial_agg.h) from computed
// weightings: the matching mass (COUNT semantics, de-sampled by 1/ρ), the
// synopsis's own Table-3 answer and — for VAR / MEDIAN — the extra
// statistics the cross-segment merge needs. Overwrites `out` in place so
// warm median_bins keep their capacity.
void FillPartialFromWeights(const PairwiseHist& ph, const KernelOps& ks,
                            AggFunc func, size_t agg_col, const AggGrid& grid,
                            const WeightTable& wt, bool single,
                            const IntervalSet* agg_clip, ExecArena& arena,
                            PartialAggregate* out) {
  const AggResult value =
      AggregateImpl(ph, ks, func, agg_col, grid, wt, single, agg_clip, arena);
  if (func == AggFunc::kCount) {
    FillPartialFromCount(value, value.empty_selection, out);
    return;
  }
  const double rho = ph.sampling_ratio();
  // Fused single-pass totals, the same reduction COUNT's Table-3 rule runs.
  double tot[3];
  ks.sum3(wt.w, wt.lo, wt.hi, wt.begin, wt.end, tot);
  out->count = tot[0] / rho;
  out->count_lo = tot[1] / rho;
  out->count_hi = tot[2] / rho;
  out->empty = tot[0] <= kWeightEps;
  out->value = value;
  out->mean = AggResult{};
  out->median_bins.clear();
  if (out->empty) return;

  if (func == AggFunc::kVar) {
    out->mean = AggregateImpl(ph, ks, AggFunc::kAvg, agg_col, grid, wt,
                              single, agg_clip, arena);
  } else if (func == AggFunc::kMedian) {
    // Export the touched weighted bins in the raw value domain; the merge
    // walks the combined weighted CDF exactly like Table 3's rule.
    const HistogramDim& hist = *grid.dim;
    const ColumnTransform& tr = ph.transform(agg_col);
    auto decode = [&](double code) { return tr.Decode(code); };
    for (size_t t = wt.begin; t < wt.end; ++t) {
      if (wt.w[t] <= 0 && wt.lo[t] <= 0 && wt.hi[t] <= 0) continue;
      BinVals bv = EffectiveBin(hist, t, agg_clip);
      PartialAggregate::MedianBin mb;
      mb.v_lo = decode(bv.v_lo);
      mb.v_hi = decode(bv.v_hi);
      mb.w = wt.w[t] / rho;
      mb.w_lo = wt.lo[t] / rho;
      mb.w_hi = wt.hi[t] / rho;
      mb.unique = hist.unique[t];
      out->median_bins.push_back(mb);
    }
  }
}

/// Sparse-row reduction of a pair's cells against per-pred-bin coverage,
/// for every aggregation row at once, over the column-major cell prefixes
/// (PairView::AggPrefixCol). Fully-covered runs (β = β− = β+ = 1) collapse
/// to one exact integer prefix difference each, only the partial coverage
/// bins around the runs read individual cells (also as prefix
/// differences), and candidate segments bound the walk (bins between
/// segments have exactly zero coverage). One sweep per coverage event
/// updates EVERY row's accumulators, vectorized across rows by the
/// run_mass3 / cell_axpy3 kernels. Lanes never cross rows, so each row
/// receives the same addend sequence as the oracle's per-row walk
/// (tests/oracle/, ReduceRow) — extra zero addends for cells that walk
/// skips are exact identities on non-negative accumulators — keeping the
/// two bit-identical on every tier. Accumulators must be zero-initialized
/// over [0, n_rows).
void ReduceRowsAll(const PairView& pair, size_t n_rows,
                   const CoverageSpan& cov, const KernelOps& ks, double* ap,
                   double* al, double* ah) {
  auto partial_bins = [&](size_t b, size_t e) {
    for (size_t tp = b; tp < e; ++tp) {
      ks.cell_axpy3(pair.AggPrefixCol(tp), pair.AggPrefixCol(tp + 1),
                    cov.beta[tp], cov.lo[tp], cov.hi[tp], ap, al, ah, 0,
                    n_rows);
    }
  };
  size_t r = 0;
  auto segment = [&](size_t sb, size_t se) {
    size_t t = sb;
    for (; r < cov.n_runs && cov.runs[2 * r] < se; ++r) {
      const size_t f0 = cov.runs[2 * r];
      const size_t f1 = cov.runs[2 * r + 1];
      partial_bins(t, f0);
      ks.run_mass3(pair.AggPrefixCol(f0), pair.AggPrefixCol(f1), ap, al, ah,
                   0, n_rows);
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
}

// ---------------------------------------------------------------------------
// Per-leaf probabilities: cell prefix index + localized coverage.

ProbTable LeafProbFast(const PairwiseHist& ph, ExecArena& arena,
                      const KernelOps& ks, size_t agg_col, size_t col,
                      const IntervalSet& intervals,
                      const std::vector<uint32_t>& g2ta, const AggGrid& grid) {
  const HistogramDim& gdim = *grid.dim;
  const size_t k = gdim.NumBins();
  ProbTable out;

  if (col == agg_col) {
    // Same-column predicate: localized coverage over the aggregation grid.
    // Fully-covered run descriptors ride along so Eq. 29 weighting can
    // consume those spans in bulk.
    CoverageSpan cov;
    cov.beta = arena.Alloc(k);
    cov.lo = arena.Alloc(k);
    cov.hi = arena.Alloc(k);
    cov.max_runs = cov.max_segs = intervals.pieces.size();
    cov.runs =
        cov.max_runs > 0 ? arena.AllocU32(2 * cov.max_runs) : nullptr;
    cov.segs =
        cov.max_segs > 0 ? arena.AllocU32(2 * cov.max_segs) : nullptr;
    ComputeCoverageInto(gdim, intervals, ph.min_points(), ph.critical_cache(),
                        &cov);
    out.p = cov.beta;
    out.lo = cov.lo;
    out.hi = cov.hi;
    out.begin = cov.begin;
    out.end = cov.end;
    out.runs = cov.runs;
    out.n_runs = cov.n_runs;
    return out;
  }

  if (grid.IsPair() && col == grid.pair_pred_col) {
    // The grid is this leaf's own pair: reduce the covered pred bins'
    // cells into exact per-grid-bin probabilities for ALL grid bins at
    // once via the column-major prefixes (ReduceRowsAll — bit-identical
    // to the oracle's per-row scan of the same rows).
    const HistogramDim& pred_dim = grid.pair.pred_dim();
    const size_t kp = pred_dim.NumBins();
    CoverageSpan cov;
    cov.beta = arena.Alloc(kp);
    cov.lo = arena.Alloc(kp);
    cov.hi = arena.Alloc(kp);
    cov.max_runs = cov.max_segs = intervals.pieces.size();
    cov.runs =
        cov.max_runs > 0 ? arena.AllocU32(2 * cov.max_runs) : nullptr;
    cov.segs =
        cov.max_segs > 0 ? arena.AllocU32(2 * cov.max_segs) : nullptr;
    ComputeCoverageInto(pred_dim, intervals, ph.min_points(),
                        ph.critical_cache(), &cov);
    if (cov.begin >= cov.end) {
      out.begin = out.end = 0;
      return out;
    }
    out.p = arena.AllocZeroed(k);
    out.lo = arena.AllocZeroed(k);
    out.hi = arena.AllocZeroed(k);
    ReduceRowsAll(grid.pair, k, cov, ks, out.p, out.lo, out.hi);
    // Rows with no cell in the covered pred range stay exactly zero; the
    // touched range is bounded by the first/last row with any such cell
    // (an exact integer test on the boundary prefix rows — the same test
    // the oracle's per-row walk makes before reducing a row).
    const uint64_t* pre_b = grid.pair.AggPrefixCol(cov.begin);
    const uint64_t* pre_e = grid.pair.AggPrefixCol(cov.end);
    size_t gmin = 0;
    while (gmin < k && pre_e[gmin] == pre_b[gmin]) ++gmin;
    if (gmin == k) {
      out.begin = out.end = 0;
      return out;
    }
    size_t gmax = k - 1;
    while (pre_e[gmax] == pre_b[gmax]) --gmax;
    ks.norm_prob3(gdim.counts.data(), out.p, out.lo, out.hi, out.p, out.lo,
                  out.hi, gmin, gmax + 1);
    out.begin = gmin;
    out.end = gmax + 1;
    return out;
  }

  // Cross-column leaf on a different pair: conditional probability per
  // refined bin of THAT pair's agg dimension (Eq. 27), rescaled by the
  // precomputed per-parent non-null fraction, then transferred onto the
  // grid through the compile-time g2ta map (both dimensions refine the
  // same 1-d edges; a grid bin that straddles pair bins takes the value at
  // its midpoint). This keeps the full resolution of every pairwise
  // histogram instead of collapsing non-grid leaves to 1-d-parent
  // granularity.
  PairView pair = ph.GetPair(agg_col, col);
  const HistogramDim& pred_dim = pair.pred_dim();
  const HistogramDim& agg_dim = pair.agg_dim();
  const size_t kp = pred_dim.NumBins();
  const size_t ka = agg_dim.NumBins();
  CoverageSpan cov;
  cov.beta = arena.Alloc(kp);
  cov.lo = arena.Alloc(kp);
  cov.hi = arena.Alloc(kp);
  cov.max_runs = cov.max_segs = intervals.pieces.size();
  cov.runs = cov.max_runs > 0 ? arena.AllocU32(2 * cov.max_runs) : nullptr;
  cov.segs = cov.max_segs > 0 ? arena.AllocU32(2 * cov.max_segs) : nullptr;
  ComputeCoverageInto(pred_dim, intervals, ph.min_points(),
                      ph.critical_cache(), &cov);

  double* pa = arena.AllocZeroed(ka);
  double* pa_lo = arena.AllocZeroed(ka);
  double* pa_hi = arena.AllocZeroed(ka);
  const HistogramDim& agg1d = ph.hist1d(agg_col);
  const size_t k1 = agg1d.NumBins();
  double* num1 = arena.AllocZeroed(k1);
  double* num1_lo = arena.AllocZeroed(k1);
  double* num1_hi = arena.AllocZeroed(k1);
  size_t ta_min = ka, ta_max = 0;
  if (cov.begin < cov.end) {
    // All rows reduced in one column-major sweep; the per-parent 1-d
    // accumulation then only touches rows with any covered cell, in
    // ascending ta order so the parent sums see the same addend sequence
    // as the oracle's per-row walk.
    ReduceRowsAll(pair, ka, cov, ks, pa, pa_lo, pa_hi);
    const uint64_t* pre_b = pair.AggPrefixCol(cov.begin);
    const uint64_t* pre_e = pair.AggPrefixCol(cov.end);
    for (size_t ta = 0; ta < ka; ++ta) {
      if (pre_e[ta] == pre_b[ta]) continue;
      ta_min = std::min(ta_min, ta);
      ta_max = std::max(ta_max, ta);
      size_t parent = agg_dim.parent.empty() ? ta : agg_dim.parent[ta];
      num1[parent] += pa[ta];
      num1_lo[parent] += pa_lo[ta];
      num1_hi[parent] += pa_hi[ta];
    }
    if (ta_min <= ta_max) {
      ks.norm_prob3(agg_dim.counts.data(), pa, pa_lo, pa_hi, pa, pa_lo,
                    pa_hi, ta_min, ta_max + 1);
    }
  }
  double* p1 = arena.Alloc(k1);
  double* p1_lo = arena.Alloc(k1);
  double* p1_hi = arena.Alloc(k1);
  ks.norm_prob3(agg1d.counts.data(), num1, num1_lo, num1_hi, p1, p1_lo,
                p1_hi, 0, k1);

  // Output is confined to grid bins whose 1-d parent saw any scattered
  // mass: pa is zero outside [ta_min, ta_max] and p1 is zero outside that
  // range's parents, and a grid bin's parent equals its mapped ta's parent
  // (both refine the same 1-d edges). Everything outside is exactly zero.
  if (ta_min > ta_max) {
    out.begin = out.end = 0;
    return out;
  }
  const size_t pmin = agg_dim.parent.empty() ? ta_min : agg_dim.parent[ta_min];
  const size_t pmax = agg_dim.parent.empty() ? ta_max : agg_dim.parent[ta_max];
  size_t gb, ge;
  if (gdim.parent.empty()) {
    gb = std::min(pmin, k);
    ge = std::min(pmax + 1, k);
  } else {
    gb = static_cast<size_t>(
        std::lower_bound(gdim.parent.begin(), gdim.parent.end(),
                         static_cast<uint32_t>(pmin)) -
        gdim.parent.begin());
    ge = static_cast<size_t>(
        std::upper_bound(gdim.parent.begin(), gdim.parent.end(),
                         static_cast<uint32_t>(pmax)) -
        gdim.parent.begin());
  }
  const std::span<const double> nnf = pair.NonNullFrac();
  out.p = arena.Alloc(k);
  out.lo = arena.Alloc(k);
  out.hi = arena.Alloc(k);
  const bool have_map = g2ta.size() == k;
  for (size_t g = gb; g < ge; ++g) {
    size_t ta = have_map
                    ? g2ta[g]
                    : agg_dim.BinIndex((gdim.edges[g] + gdim.edges[g + 1]) /
                                       2.0);
    size_t parent = gdim.parent.empty() ? g : gdim.parent[g];
    if (agg_dim.counts[ta] > 0) {
      double scale = nnf[parent];
      out.p[g] = pa[ta] * scale;
      out.lo[g] = pa_lo[ta] * scale;
      out.hi[g] = pa_hi[ta] * scale;
    } else {
      out.p[g] = p1[parent];
      out.lo[g] = p1_lo[parent];
      out.hi[g] = p1_hi[parent];
    }
  }
  out.begin = gb;
  out.end = ge;
  return out;
}

// AND/OR combination (Eq. 28) over touched ranges. Outside a child's range
// its probability is exactly zero, so an AND shrinks to the intersection
// and an OR's missing factors are exactly (1 - 0) = 1.
ProbTable EvalNodeFast(const PairwiseHist& ph, ExecArena& arena,
                      const KernelOps& ks, size_t agg_col,
                      const NormalizedPredicate& node, const AggGrid& grid) {
  if (node.type == NormalizedPredicate::Type::kLeaf) {
    return LeafProbFast(ph, arena, ks, agg_col, node.column, node.intervals,
                        node.g2ta, grid);
  }
  const size_t k = grid.dim->NumBins();
  const bool is_and = node.type == NormalizedPredicate::Type::kAnd;
  ProbTable acc;
  acc.p = arena.Alloc(k);
  acc.lo = arena.Alloc(k);
  acc.hi = arena.Alloc(k);
  bool first = true;
  size_t rb = 0, re = 0;
  for (const NormalizedPredicate& child : node.children) {
    ProbTable cp = EvalNodeFast(ph, arena, ks, agg_col, child, grid);
    if (is_and) {
      if (cp.begin >= cp.end) {
        rb = re = 0;  // one empty factor zeroes the whole conjunction
        first = false;
        break;
      }
      if (first) {
        rb = cp.begin;
        re = cp.end;
        std::copy(cp.p + rb, cp.p + re, acc.p + rb);
        std::copy(cp.lo + rb, cp.lo + re, acc.lo + rb);
        std::copy(cp.hi + rb, cp.hi + re, acc.hi + rb);
        first = false;
      } else {
        rb = std::max(rb, cp.begin);
        re = std::min(re, cp.end);
        if (rb >= re) {
          rb = re = 0;
          break;
        }
        ks.mul3(acc.p, acc.lo, acc.hi, cp.p, cp.lo, cp.hi, rb, re);
      }
    } else {
      if (cp.begin >= cp.end) continue;  // factor (1 - 0) = 1 everywhere
      if (first) {
        rb = cp.begin;
        re = cp.end;
        for (size_t t = rb; t < re; ++t) {
          acc.p[t] = 1.0 - cp.p[t];
          acc.lo[t] = 1.0 - cp.hi[t];  // complement swaps the bounds
          acc.hi[t] = 1.0 - cp.lo[t];
        }
        first = false;
      } else {
        size_t nb = std::min(rb, cp.begin);
        size_t ne = std::max(re, cp.end);
        // Newly exposed bins were untouched by earlier children: their
        // running complement products are exactly 1.
        for (size_t t = nb; t < rb; ++t) {
          acc.p[t] = acc.lo[t] = acc.hi[t] = 1.0;
        }
        for (size_t t = re; t < ne; ++t) {
          acc.p[t] = acc.lo[t] = acc.hi[t] = 1.0;
        }
        rb = nb;
        re = ne;
        ks.or_mul3(acc.p, acc.lo, acc.hi, cp.p, cp.lo, cp.hi, cp.begin,
                   cp.end);
      }
    }
  }
  acc.begin = rb;
  acc.end = re;
  if (!is_and) ks.complement3(acc.p, acc.lo, acc.hi, rb, re);
  return acc;
}

// Shared probability stage: satisfaction probabilities for the
// WHERE tree (optionally conjoined with the per-value GROUP BY leaf), all
// in the arena. Used by ComputeWeightSpanFast (one GROUP BY value) and the
// batch path (which collects one ProbTable per distinct predicate set,
// then weights every row with a single batched kernel call).
ProbTable ComputeProbSpanFast(const PairwiseHist& ph, ExecArena& arena,
                             const KernelOps& ks, size_t agg_col,
                             const NormalizedPredicate* where,
                             const NormalizedPredicate* extra_group_leaf,
                             const std::vector<uint32_t>* extra_g2ta,
                             const AggGrid& grid) {
  const size_t k = grid.dim->NumBins();
  ProbTable prob;
  if (where != nullptr) {
    prob = EvalNodeFast(ph, arena, ks, agg_col, *where, grid);
  } else {
    prob.p = arena.Alloc(k);
    prob.lo = arena.Alloc(k);
    prob.hi = arena.Alloc(k);
    std::fill(prob.p, prob.p + k, 1.0);
    std::fill(prob.lo, prob.lo + k, 1.0);
    std::fill(prob.hi, prob.hi + k, 1.0);
    prob.begin = 0;
    prob.end = k;
    if (k > 0) {
      // No predicate: the whole grid is one fully-covered run, so the
      // weighting below is a straight bulk copy of the bin counts.
      uint32_t* run = arena.AllocU32(2);
      run[0] = 0;
      run[1] = static_cast<uint32_t>(k);
      prob.runs = run;
      prob.n_runs = 1;
    }
  }
  if (extra_group_leaf != nullptr) {
    const std::vector<uint32_t>& map =
        (extra_g2ta != nullptr) ? *extra_g2ta : extra_group_leaf->g2ta;
    ProbTable gp = LeafProbFast(ph, arena, ks, agg_col,
                               extra_group_leaf->column,
                               extra_group_leaf->intervals, map, grid);
    // The product is no longer pure coverage: drop any run descriptors.
    prob.runs = nullptr;
    prob.n_runs = 0;
    size_t rb = std::max(prob.begin, gp.begin);
    size_t re = std::min(prob.end, gp.end);
    if (rb >= re) {
      prob.begin = prob.end = 0;
    } else {
      ks.mul3(prob.p, prob.lo, prob.hi, gp.p, gp.lo, gp.hi, rb, re);
      prob.begin = rb;
      prob.end = re;
    }
  }
  return prob;
}

// Shared weighting pipeline: probabilities then Eq. 29 weights, all in the
// arena. Used by ExecutePartialGroup; the batch path runs the same
// probability stage and one batched call of the same weighting kernel.
WeightTable ComputeWeightSpanFast(const PairwiseHist& ph, ExecArena& arena,
                             const KernelOps& ks, size_t agg_col,
                             const NormalizedPredicate* where,
                             const NormalizedPredicate* extra_group_leaf,
                             const std::vector<uint32_t>* extra_g2ta,
                             const AggGrid& grid) {
  ProbTable prob = ComputeProbSpanFast(ph, arena, ks, agg_col, where,
                                      extra_group_leaf, extra_g2ta, grid);
  WeightTable wt = WeightTable::Make(arena, grid.dim->NumBins());
  wt.begin = prob.begin;
  wt.end = prob.end;
  WeightsInto(ph, *grid.dim, prob, wt, ks);
  return wt;
}

// Value equality of normalized predicate trees (columns, exact interval
// endpoints, AND/OR structure). Two plans on the same synopsis with equal
// aggregation column, grid and value-equal WHERE trees run the identical
// coverage + probability + weighting pipeline, so a batch computes it
// once and shares the weight table (the transfer maps are derived from
// (grid, column) and need no separate comparison).
bool NodeEqual(const NormalizedPredicate& a, const NormalizedPredicate& b) {
  if (a.type != b.type) return false;
  if (a.type == NormalizedPredicate::Type::kLeaf) {
    return a.column == b.column && a.intervals.pieces == b.intervals.pieces;
  }
  if (a.children.size() != b.children.size()) return false;
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!NodeEqual(a.children[i], b.children[i])) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Execution scratch: a per-execution arena plus a reusable GROUP BY leaf,
// ExecuteInto's one-part partial and the batch bookkeeping,
// pooled per engine (ObjectPool) so concurrent executions never share one
// and steady-state execution allocates nothing.

/// One batch group: scalar plans sharing a weight pipeline.
struct AqpEngine::BatchGroup {
  std::vector<size_t> members;
  ProbTable prob;  // shared probabilities (arena-backed)
  WeightTable wt;  // shared weight row (SoA block row)
};

struct AqpEngine::ExecScratch {
  ExecArena arena;
  Node group_leaf;
  /// ExecuteInto's partial: warm group slots keep their storage.
  PartialResult partial;

  // Batch bookkeeping (PartialBatchInto): kept in the
  // pooled scratch so repeated batches reuse the group/pointer vector
  // capacity instead of allocating per call.
  // groups[0..n_groups) are live for the current call; the tail keeps its
  // warmed member-vector capacity for the next batch.
  std::vector<BatchGroup> groups;
  size_t n_groups = 0;
  std::vector<WeightRow> rows;

  ExecScratch() {
    group_leaf.type = Node::Type::kLeaf;
    group_leaf.intervals.pieces.reserve(1);
  }

  /// Reuses (or appends) a group slot, clearing only per-call state.
  BatchGroup& AppendGroup() {
    if (n_groups == groups.size()) groups.emplace_back();
    BatchGroup& g = groups[n_groups++];
    g.members.clear();
    g.prob = ProbTable();
    g.wt = WeightTable();
    return g;
  }
};

// Leases a scratch from the engine's pool for one execution; allocates
// only when the pool is dry (first call, or more concurrent executions
// than ever before). Shared by every execution entry point.
struct AqpEngine::ScratchLease {
  explicit ScratchLease(const AqpEngine* e) : eng(e), s(e->pool_->Acquire()) {
    if (s == nullptr) s = std::make_unique<ExecScratch>();
  }
  ~ScratchLease() { eng->pool_->Release(std::move(s)); }
  ExecScratch& operator*() { return *s; }

  const AqpEngine* eng;
  std::unique_ptr<ExecScratch> s;
};

AqpEngine::AqpEngine(const PairwiseHist* synopsis, AqpEngineOptions options)
    : ph_(synopsis),
      options_(options),
      ks_(&GetKernels(options.kernels)),
      pool_(std::make_unique<ScratchPool>()) {}

AqpEngine::~AqpEngine() = default;
AqpEngine::AqpEngine(AqpEngine&&) noexcept = default;
AqpEngine& AqpEngine::operator=(AqpEngine&&) noexcept = default;

namespace {

/// Calls f(leaf) for every leaf of a normalized tree, depth-first.
template <typename F>
void ForEachLeaf(const NormalizedPredicate& node, const F& f) {
  if (node.type == NormalizedPredicate::Type::kLeaf) {
    f(node);
    return;
  }
  for (const NormalizedPredicate& c : node.children) ForEachLeaf(c, f);
}

/// The first condition of a WHERE tree, depth-first (nullptr if none).
const Condition* FirstCondition(const PredicateNode& node) {
  if (node.type == PredicateNode::Type::kCondition) return &node.condition;
  for (const PredicateNode& c : node.children) {
    if (const Condition* first = FirstCondition(c)) return first;
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Predicate normalization with delayed transformation.

StatusOr<AqpEngine::Node> AqpEngine::Normalize(
    const PredicateNode& node) const {
  if (node.type == PredicateNode::Type::kCondition) {
    Node leaf;
    leaf.type = Node::Type::kLeaf;
    PH_ASSIGN_OR_RETURN(leaf.column,
                        ph_->ColumnIndex(node.condition.column));
    leaf.intervals =
        ConditionToIntervals(node.condition, ph_->transform(leaf.column));
    return leaf;
  }

  const bool is_and = node.type == PredicateNode::Type::kAnd;
  Node out;
  out.type = is_and ? Node::Type::kAnd : Node::Type::kOr;

  // Consolidate leaf children that touch the same column (the paper's
  // delayed transformation): intersect for AND, union for OR. Subtrees
  // come first, then the consolidated leaves, each in first-seen order:
  // children[0, subtrees) are subtrees, the rest leaves.
  out.children.reserve(node.children.size());
  size_t subtrees = 0;
  for (const auto& child : node.children) {
    PH_ASSIGN_OR_RETURN(Node c, Normalize(child));
    if (c.type != Node::Type::kLeaf) {
      out.children.push_back(std::move(c));
      std::rotate(out.children.begin() + subtrees, out.children.end() - 1,
                  out.children.end());
      ++subtrees;
      continue;
    }
    auto same = std::find_if(
        out.children.begin() + subtrees, out.children.end(),
        [&](const Node& leaf) { return leaf.column == c.column; });
    if (same == out.children.end()) {
      out.children.push_back(std::move(c));
    } else {
      same->intervals =
          is_and ? IntervalSet::Intersect(same->intervals, c.intervals)
                 : IntervalSet::Union(same->intervals, c.intervals);
    }
  }
  if (out.children.size() == 1) return std::move(out.children[0]);
  return out;
}

bool AqpEngine::HasOr(const Node& node) {
  if (node.type == Node::Type::kOr) return true;
  for (const Node& c : node.children) {
    if (HasOr(c)) return true;
  }
  return false;
}

const IntervalSet* AqpEngine::FindAggClip(const Node& node, size_t agg_col) {
  // Sound only for conjunctive contexts: a root leaf, or a leaf directly
  // under the root AND.
  if (node.type == Node::Type::kLeaf) {
    return node.column == agg_col ? &node.intervals : nullptr;
  }
  if (node.type != Node::Type::kAnd) return nullptr;
  for (const Node& c : node.children) {
    if (c.type == Node::Type::kLeaf && c.column == agg_col) {
      return &c.intervals;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Grid selection.

AqpEngine::Grid AqpEngine::ChooseGrid(size_t agg_col, const Node* root,
                                      bool has_or, size_t group_col) const {
  Grid grid;
  grid.dim = &ph_->hist1d(agg_col);

  // The first predicate column (depth-first, then the GROUP BY column)
  // whose pair with the aggregation column refines it most wins.
  auto consider = [&](size_t col) {
    if (col == agg_col) return;
    PairView pv = ph_->GetPair(agg_col, col);
    if (!pv.valid()) return;
    // The pair grid counts rows where BOTH columns are non-null. Under a
    // pure conjunction that exclusion is exact (a null predicate column
    // fails the predicate anyway); under OR it would wrongly drop rows
    // that satisfy a different branch, so only null-free columns qualify.
    if (has_or && ph_->transform(col).has_nulls) return;
    if (pv.agg_dim().NumBins() > grid.dim->NumBins()) {
      grid.dim = &pv.agg_dim();
      grid.pair = pv;
      grid.pair_pred_col = col;
    }
  };
  if (root != nullptr) {
    ForEachLeaf(*root, [&](const Node& leaf) { consider(leaf.column); });
  }
  if (group_col != kNoColumn) consider(group_col);
  return grid;
}

// ---------------------------------------------------------------------------
// Transfer maps (grid bin → refined agg bin of a leaf's pair),
// precomputed at compile time so execution avoids per-bin binary searches.

std::vector<uint32_t> AqpEngine::TransferMap(size_t agg_col, size_t col,
                                             const Grid& grid) const {
  if (col == agg_col) return {};
  if (grid.IsPair() && col == grid.pair_pred_col) return {};
  PairView pair = ph_->GetPair(agg_col, col);
  if (!pair.valid()) return {};
  const HistogramDim& gdim = *grid.dim;
  const HistogramDim& agg_dim = pair.agg_dim();
  const double* gedges = gdim.edges.data();
  const double* edges = agg_dim.edges.data();
  const size_t n_edges = agg_dim.edges.size();
  const size_t last = agg_dim.NumBins() - 1;
  const size_t k = gdim.NumBins();
  std::vector<uint32_t> map(k);
  // One merge walk over the two sorted edge arrays: grid-bin midpoints
  // ascend, so agg_dim.BinIndex(mid) — upper_bound minus one, clamped to
  // the last bin — only moves forward. `above` is that upper_bound.
  size_t above = 0;
  for (size_t g = 0; g < k; ++g) {
    const double mid = (gedges[g] + gedges[g + 1]) / 2.0;
    while (above < n_edges && !(mid < edges[above])) ++above;
    map[g] = static_cast<uint32_t>(above == 0 ? 0 : std::min(above - 1, last));
  }
  return map;
}

void AqpEngine::FillTransferMaps(Node* node, size_t agg_col,
                                 const Grid& grid) const {
  if (node->type == Node::Type::kLeaf) {
    node->g2ta = TransferMap(agg_col, node->column, grid);
    return;
  }
  for (Node& c : node->children) FillTransferMaps(&c, agg_col, grid);
}

// ---------------------------------------------------------------------------
// Compilation: everything that depends only on the query text and the
// synopsis structure (not on per-execution state) happens once here.

StatusOr<CompiledQuery> AqpEngine::Compile(const Query& query) const {
  CompiledQuery plan;
  plan.func_ = query.func;
  plan.count_star_ = query.count_star;

  // Normalize the WHERE clause once (literal mapping into the code domain
  // + same-column consolidation).
  if (query.where.has_value()) {
    PH_ASSIGN_OR_RETURN(Node n, Normalize(*query.where));
    plan.where_ = std::move(n);
  }
  plan.has_or_ = plan.where_.has_value() && HasOr(*plan.where_);

  // GROUP BY resolution.
  if (!query.group_by.empty()) {
    PH_ASSIGN_OR_RETURN(plan.group_col_,
                        ph_->ColumnIndex(query.group_by));
    const ColumnTransform& tr = ph_->transform(plan.group_col_);
    if (tr.type == DataType::kCategorical) {
      plan.group_values_ = tr.rank_to_code.size();
    } else if (tr.max_code <= 4096) {
      plan.group_values_ = tr.max_code;
    } else {
      return Status::Unsupported(
          "GROUP BY on high-cardinality numeric column '" + query.group_by +
          "' (" + std::to_string(tr.max_code) + " distinct codes)");
    }
    if (plan.group_values_ == 0) plan.group_values_ = 1;
  }

  // Aggregation column; COUNT(*) rides on the first predicate column, or
  // the GROUP BY column when there is no predicate.
  const bool grouped = plan.grouped();
  if (!query.count_star) {
    PH_ASSIGN_OR_RETURN(plan.agg_col_, ph_->ColumnIndex(query.agg_column));
  } else {
    const Condition* first =
        query.where.has_value() ? FirstCondition(*query.where) : nullptr;
    if (first != nullptr) {
      PH_ASSIGN_OR_RETURN(plan.agg_col_, ph_->ColumnIndex(first->column));
    } else if (grouped) {
      plan.agg_col_ = plan.group_col_;
    } else {
      // COUNT(*) with no predicate: answered exactly from N at execution.
      plan.agg_col_ = 0;
      return plan;
    }
  }

  // Grid selection looks only at which columns carry predicates, never at
  // the literal values, so for grouped queries the group column stands in
  // for the per-value leaf every execution conjoins.
  plan.grid_ = ChooseGrid(plan.agg_col_, plan.where(), plan.has_or_,
                          grouped ? plan.group_col_ : kNoColumn);

  // Same-column clip from the WHERE tree (the per-value GROUP BY leaf is
  // folded in at execution time when it lands on the aggregation column).
  if (plan.where_.has_value()) {
    const IntervalSet* clip = FindAggClip(*plan.where_, plan.agg_col_);
    if (clip != nullptr) plan.agg_clip_ = *clip;
  }

  plan.single_column_ = !query.count_star && query.SingleColumn();

  // Transfer maps: one per cross-column leaf plus one for the
  // per-value GROUP BY leaf (same column every execution).
  if (plan.where_.has_value()) {
    FillTransferMaps(&*plan.where_, plan.agg_col_, plan.grid_);
  }
  if (grouped) {
    plan.group_g2ta_ = TransferMap(plan.agg_col_, plan.group_col_, plan.grid_);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Execution: coverage + weighting + aggregation over a compiled plan.

namespace {

/// The single group of a scalar partial, reusing warm storage.
PartialAggregate& ScalarSlot(PartialResult* out) {
  out->groups.resize(1);
  out->groups[0].label.clear();
  return out->groups[0].agg;
}

}  // namespace

void AqpEngine::ExecutePartialGroup(const CompiledQuery& plan,
                                    const Node& group_leaf,
                                    ExecScratch& scratch,
                                    PartialAggregate* out) const {
  ExecArena& arena = scratch.arena;
  arena.Reset();
  const size_t agg_col = plan.agg_col_;
  const Grid& grid = plan.grid_;
  const IntervalSet* agg_clip =
      ResolveAggClip(plan.agg_clip_, &group_leaf, agg_col);
  const bool single = ResolveSingle(plan.single_column_, &group_leaf, agg_col);
  WeightTable wt =
      ComputeWeightSpanFast(*ph_, arena, *ks_, agg_col, plan.where(),
                            &group_leaf, &plan.group_g2ta_, grid);
  FillPartialFromWeights(*ph_, *ks_, plan.func_, agg_col, grid, wt, single,
                         agg_clip, arena, out);
}

void AqpEngine::PartialInto(const CompiledQuery& plan, ExecScratch& scratch,
                            PartialResult* out) const {
  if (!plan.grouped()) {
    // COUNT(*) with no predicate: this synopsis's exact row count.
    const double n = static_cast<double>(ph_->total_rows());
    FillPartialFromCount(AggResult{n, n, n, false}, n == 0, &ScalarSlot(out));
    return;
  }

  const ColumnTransform& tr = ph_->transform(plan.group_col_);
  Node& leaf = scratch.group_leaf;
  leaf.column = plan.group_col_;
  size_t used = 0;
  for (uint64_t code = 1; code <= plan.group_values_; ++code) {
    leaf.intervals.pieces.clear();
    leaf.intervals.pieces.emplace_back(static_cast<double>(code),
                                       static_cast<double>(code));
    if (used == out->groups.size()) out->groups.emplace_back();
    PartialResult::Group& g = out->groups[used];
    ExecutePartialGroup(plan, leaf, scratch, &g.agg);
    // Keep any group with estimated mass — even one below the grouped
    // COUNT display threshold: segments accumulate before filtering.
    if (g.agg.empty) continue;
    g.label = FormatGroupLabel(tr, code);
    ++used;
  }
  out->groups.resize(used);
}

Status AqpEngine::ExecuteInto(const CompiledQuery& plan,
                              QueryResult* result) const {
  // A batch of one, then a merge of one part — the identity: this
  // synopsis's own answer.
  ScratchLease lease(this);
  ExecScratch& scratch = *lease;
  const CompiledQuery* plans[1] = {&plan};
  PartialResult* outs[1] = {&scratch.partial};
  PartialBatchInto(plans, outs, scratch);
  MergePartialResults(plan.func_, plan.grouped(), &scratch.partial, 1,
                      result, ks_);
  return Status::OK();
}

StatusOr<QueryResult> AqpEngine::Execute(const CompiledQuery& plan) const {
  QueryResult result;
  PH_RETURN_IF_ERROR(ExecuteInto(plan, &result));
  return result;
}

StatusOr<QueryResult> AqpEngine::Execute(const Query& query) const {
  PH_ASSIGN_OR_RETURN(CompiledQuery plan, Compile(query));
  return Execute(plan);
}

StatusOr<QueryResult> AqpEngine::ExecuteSql(const std::string& sql) const {
  PH_ASSIGN_OR_RETURN(Query q, ParseSql(sql));
  return Execute(q);
}

// ---------------------------------------------------------------------------
// Batch execution, the engine's only read path (a single statement is a
// batch of one). Plans are grouped by shared weight pipeline — same
// aggregation column, same grid, value-equal normalized WHERE tree — so
// coverage, probabilities and Eq. 29 weighting run once per distinct
// predicate set while only the cheap Table-3 aggregation runs per plan.
// Every shared stage is a deterministic pure function of the shared
// inputs, so a plan's partial is bit-identical whatever batch it runs in.

bool AqpEngine::TryCountShortcutFast(const CompiledQuery& plan,
                                     AggResult* out) const {
  // A single same-column predicate whose pieces fully cover every touched
  // bin needs only prefix-sum differences (all contributions are exact
  // integers, so the total is identical to the general path's per-bin
  // sum).
  if (plan.func_ != AggFunc::kCount || plan.grid_.IsPair() ||
      !plan.where_.has_value() || plan.where_->type != Node::Type::kLeaf ||
      plan.where_->column != plan.agg_col_) {
    return false;
  }
  double total = 0.0;
  if (!CountFullyCovered(*plan.grid_.dim, plan.where_->intervals, &total)) {
    return false;
  }
  out->estimate = total / ph_->sampling_ratio();
  out->lower = out->upper = out->estimate;
  out->empty_selection = total <= kWeightEps;
  return true;
}

void AqpEngine::GroupBatchPlans(PlanSpan plans, OutSpan out,
                                ExecScratch& scratch) const {
  scratch.n_groups = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    const CompiledQuery& p = *plans[i];
    if (p.grouped() || (p.count_star_ && !p.where_.has_value())) {
      PartialInto(p, scratch, out[i]);
      continue;
    }
    AggResult counted;
    if (TryCountShortcutFast(p, &counted)) {
      FillPartialFromCount(counted, counted.empty_selection,
                           &ScalarSlot(out[i]));
      continue;
    }
    bool joined = false;
    for (size_t gi = 0; gi < scratch.n_groups; ++gi) {
      BatchGroup& g = scratch.groups[gi];
      const CompiledQuery& h = *plans[g.members.front()];
      if (h.agg_col_ == p.agg_col_ && h.grid_.dim == p.grid_.dim &&
          h.where_.has_value() == p.where_.has_value() &&
          (!p.where_.has_value() || NodeEqual(*h.where_, *p.where_))) {
        g.members.push_back(i);
        joined = true;
        break;
      }
    }
    if (!joined) scratch.AppendGroup().members.push_back(i);
  }
}

void AqpEngine::WeightBatchGroups(PlanSpan plans, ExecScratch& scratch) const {
  ExecArena& arena = scratch.arena;
  const size_t n_wt = scratch.n_groups;
  size_t max_bins = 0;
  for (size_t gi = 0; gi < n_wt; ++gi) {
    const CompiledQuery& head = *plans[scratch.groups[gi].members.front()];
    max_bins = std::max(max_bins, head.grid_.dim->NumBins());
  }
  // Per-batch arena sizing, then one probability pipeline per group and a
  // single batched Eq.-29 weighting call over the plan-major SoA block.
  arena.Reset();
  arena.Reserve(BatchArenaBytes(max_bins, n_wt));
  WeightTableBlock block(arena, max_bins, n_wt);
  scratch.rows.clear();
  scratch.rows.reserve(n_wt);
  for (size_t gi = 0; gi < n_wt; ++gi) {
    BatchGroup& g = scratch.groups[gi];
    const CompiledQuery& head = *plans[g.members.front()];
    g.prob = ComputeProbSpanFast(*ph_, arena, *ks_, head.agg_col_,
                                 head.where(), nullptr, nullptr, head.grid_);
    g.wt = block.Row(gi);
    g.wt.begin = g.prob.begin;
    g.wt.end = g.prob.end;
    scratch.rows.push_back(MakeWeightRow(*head.grid_.dim, g.prob, g.wt));
  }
  const WidenParams wp = WidenParamsOf(*ph_);
  ks_->weights_batch(scratch.rows.data(), scratch.rows.size(), wp.z, wp.fpc,
                     wp.widen ? 1 : 0);
}

Status AqpEngine::ExecutePartialBatchInto(PlanSpan plans,
                                          OutSpan out) const {
  if (plans.size() != out.size()) {
    return Status::InvalidArgument("batch plans/results size mismatch");
  }
  for (size_t i = 0; i < plans.size(); ++i) {
    if (plans[i] == nullptr || out[i] == nullptr) {
      return Status::InvalidArgument("batch plan/result is null");
    }
  }
  ScratchLease lease(this);
  PartialBatchInto(plans, out, *lease);
  return Status::OK();
}

void AqpEngine::PartialBatchInto(PlanSpan plans, OutSpan out,
                                 ExecScratch& scratch) const {
  // Plans that need no weights resolve while grouping; the rest share one
  // weight table per group. All bookkeeping lives in the pooled scratch so
  // repeated batches are allocation-free in steady state.
  GroupBatchPlans(plans, out, scratch);
  if (scratch.n_groups == 0) return;
  WeightBatchGroups(plans, scratch);

  // Table-3 aggregation per plan over its group's shared weights.
  for (size_t gi = 0; gi < scratch.n_groups; ++gi) {
    const BatchGroup& g = scratch.groups[gi];
    for (size_t i : g.members) {
      const CompiledQuery& p = *plans[i];
      const IntervalSet* clip =
          p.agg_clip_.has_value() ? &*p.agg_clip_ : nullptr;
      FillPartialFromWeights(*ph_, *ks_, p.func_, p.agg_col_, p.grid_, g.wt,
                             p.single_column_, clip, scratch.arena,
                             &ScalarSlot(out[i]));
    }
  }
}

}  // namespace pairwisehist
