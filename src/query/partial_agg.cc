#include "query/partial_agg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <unordered_map>

namespace pairwisehist {

namespace {

constexpr double kMassEps = 1e-9;
const double kNaN = std::numeric_limits<double>::quiet_NaN();

AggResult EmptyResult(AggFunc func) {
  AggResult r;
  r.empty_selection = true;
  if (func != AggFunc::kCount) {
    r.estimate = r.lower = r.upper = kNaN;
  }
  return r;
}

/// Extreme of the weighted average Σ w_i v_i / Σ w_i with each w_i free in
/// [lo_i, hi_i]. The optimum sits at an extreme point where small values
/// get one bound and large values the other, so scanning the n+1 splits of
/// the value-sorted order finds it exactly. Falls back to the plain
/// min/max of `vals` when every weight interval is zero.
double WeightedAvgExtreme(std::span<const double> vals,
                          std::span<const double> wlo,
                          std::span<const double> whi, bool maximize) {
  const size_t n = vals.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return vals[a] < vals[b]; });

  bool found = false;
  double best = 0;
  for (size_t split = 0; split <= n; ++split) {
    // Minimizing: weight the `split` smallest values at their hi bound and
    // the rest at lo. Maximizing: the mirror image.
    double tw = 0, tv = 0;
    for (size_t p = 0; p < n; ++p) {
      size_t i = order[p];
      bool heavy = maximize ? (p >= split) : (p < split);
      double w = heavy ? whi[i] : wlo[i];
      tw += w;
      tv += w * vals[i];
    }
    if (tw <= kMassEps) continue;
    double avg = tv / tw;
    if (!found || (maximize ? avg > best : avg < best)) {
      best = avg;
      found = true;
    }
  }
  if (found) return best;
  // All weight intervals are (numerically) zero: any mixture degenerates;
  // bound by the extreme value itself.
  double ext = vals.empty() ? 0.0 : vals[order[maximize ? n - 1 : 0]];
  return ext;
}

// Mirrors AggregateImpl's kMedian CDF walk (engine.cc) over the combined
// raw-domain bins of every segment. The two deliberately stay separate
// implementations: the engine interpolates in the code domain and decodes
// the result (bit-compatibility with the paper path), while the merge
// works on already-decoded exported bins — but any change to the median
// RULE (half-mass tie handling, the unique==2 two-value case, the
// w_lo/w_hi bound walk) must be applied to both, and the 1-vs-N-segment
// equivalence suite in tests/segment_test.cc guards their agreement. It
// only ever runs over two or more parts with mass: one such part answers
// with its own engine result.
AggResult MergeMedian(const std::vector<const PartialAggregate*>& parts,
                      const KernelOps& ks) {
  // Gather every touched bin; sort by value interval for the CDF walk.
  std::vector<const PartialAggregate::MedianBin*> bins;
  for (const PartialAggregate* p : parts) {
    for (const auto& b : p->median_bins) bins.push_back(&b);
  }
  std::sort(bins.begin(), bins.end(),
            [](const PartialAggregate::MedianBin* a,
               const PartialAggregate::MedianBin* b) {
              if (a->v_lo != b->v_lo) return a->v_lo < b->v_lo;
              return a->v_hi < b->v_hi;
            });
  const size_t n = bins.size();
  if (n == 0) return EmptyResult(AggFunc::kMedian);

  // Transpose the sorted bins into weight lanes so the three CDF walks run
  // as prefix-scan kernels + binary search instead of pointer-chasing.
  std::vector<double> w(n), w_lo(n), w_hi(n), prefix(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = bins[i]->w;
    w_lo[i] = bins[i]->w_lo;
    w_hi[i] = bins[i]->w_hi;
  }
  // Same 1e-9 relative tie tolerance as the engine's half-mass walk
  // (engine.cc kMedian): the two implementations must keep rule parity.
  auto median_bin = [&](const double* wv) -> int {
    ks.prefix_sum(wv, 0, n, prefix.data());
    double tw = prefix[n - 1];
    if (tw <= kMassEps) return -1;
    double target = tw / 2.0 - 1e-9 * tw;
    size_t idx = static_cast<size_t>(
        std::lower_bound(prefix.data(), prefix.data() + n, target) -
        prefix.data());
    if (idx >= n) idx = n - 1;
    return static_cast<int>(idx);
  };

  AggResult r;
  int t_est = median_bin(w.data());
  if (t_est < 0) return EmptyResult(AggFunc::kMedian);

  const size_t te = static_cast<size_t>(t_est);
  double total = prefix[n - 1];
  double before = te > 0 ? prefix[te - 1] : 0.0;
  const auto* bt = bins[te];
  double f = (total / 2.0 - before) / std::max(bt->w, kMassEps);
  f = std::clamp(f, 0.0, 1.0);
  if (bt->unique == 2) {
    r.estimate = f < 0.5 ? bt->v_lo : bt->v_hi;
  } else {
    r.estimate = bt->v_lo + (bt->v_hi - bt->v_lo) * f;
  }

  int t_lo = t_est, t_hi = t_est;
  for (const double* wv : {w_lo.data(), w_hi.data()}) {
    int tb = median_bin(wv);
    if (tb >= 0) {
      t_lo = std::min(t_lo, tb);
      t_hi = std::max(t_hi, tb);
    }
  }
  r.lower = bins[static_cast<size_t>(t_lo)]->v_lo;
  r.upper = bins[static_cast<size_t>(t_hi)]->v_hi;
  r.lower = std::min(r.lower, r.estimate);
  r.upper = std::max(r.upper, r.estimate);
  return r;
}

}  // namespace

AggResult MergePartials(AggFunc func,
                        const std::vector<const PartialAggregate*>& parts,
                        const KernelOps* ks) {
  if (ks == nullptr) ks = &ScalarKernels();
  if (func == AggFunc::kCount) {
    AggResult r;
    r.empty_selection = true;
    for (const PartialAggregate* p : parts) {
      r.estimate += p->count;
      r.lower += p->count_lo;
      r.upper += p->count_hi;
      r.empty_selection = r.empty_selection && p->empty;
    }
    return r;
  }

  // Non-COUNT functions draw only from segments with matching mass.
  std::vector<const PartialAggregate*> live;
  for (const PartialAggregate* p : parts) {
    if (!p->empty) live.push_back(p);
  }
  if (live.empty()) return EmptyResult(func);
  if (live.size() == 1) {
    return live[0]->value;  // single contributing segment: pass through
  }
  if (func == AggFunc::kMedian) return MergeMedian(live, *ks);

  AggResult r;
  switch (func) {
    case AggFunc::kSum: {
      for (const PartialAggregate* p : live) {
        r.estimate += p->value.estimate;
        r.lower += p->value.lower;
        r.upper += p->value.upper;
      }
      return r;
    }
    case AggFunc::kAvg: {
      double w = 0, num = 0;
      std::vector<double> lo_vals, hi_vals, wlo, whi;
      for (const PartialAggregate* p : live) {
        w += p->count;
        num += p->count * p->value.estimate;
        lo_vals.push_back(p->value.lower);
        hi_vals.push_back(p->value.upper);
        wlo.push_back(p->count_lo);
        whi.push_back(p->count_hi);
      }
      r.estimate = w > kMassEps ? num / w : live[0]->value.estimate;
      r.lower = WeightedAvgExtreme(lo_vals, wlo, whi, /*maximize=*/false);
      r.upper = WeightedAvgExtreme(hi_vals, wlo, whi, /*maximize=*/true);
      r.lower = std::min(r.lower, r.estimate);
      r.upper = std::max(r.upper, r.estimate);
      return r;
    }
    case AggFunc::kVar: {
      // Pooled variance from per-segment (count, mean, var).
      double w = 0, m1 = 0, m2 = 0;
      for (const PartialAggregate* p : live) {
        w += p->count;
        m1 += p->count * p->mean.estimate;
        m2 += p->count * (p->value.estimate +
                          p->mean.estimate * p->mean.estimate);
      }
      if (w <= kMassEps) return live[0]->value;
      double mean = m1 / w;
      r.estimate = std::max(0.0, m2 / w - mean * mean);

      // Lower bound: pooled variance >= the count-weighted mean of the
      // within-segment variances >= the smallest per-segment lower bound.
      double lo = std::numeric_limits<double>::infinity();
      for (const PartialAggregate* p : live) {
        lo = std::min(lo, p->value.lower);
      }
      r.lower = std::max(0.0, std::min(lo, r.estimate));

      // Upper bound: extremal second moment minus the smallest possible
      // squared merged mean.
      std::vector<double> e2_hi, mlo_v, mhi_v, wlo, whi;
      for (const PartialAggregate* p : live) {
        double mm = std::max(p->mean.lower * p->mean.lower,
                             p->mean.upper * p->mean.upper);
        e2_hi.push_back(p->value.upper + mm);
        mlo_v.push_back(p->mean.lower);
        mhi_v.push_back(p->mean.upper);
        wlo.push_back(p->count_lo);
        whi.push_back(p->count_hi);
      }
      double e2 = WeightedAvgExtreme(e2_hi, wlo, whi, /*maximize=*/true);
      double mean_lo = WeightedAvgExtreme(mlo_v, wlo, whi, false);
      double mean_hi = WeightedAvgExtreme(mhi_v, wlo, whi, true);
      double mean_sq_min = (mean_lo <= 0.0 && mean_hi >= 0.0)
                               ? 0.0
                               : std::min(mean_lo * mean_lo,
                                          mean_hi * mean_hi);
      r.upper = std::max(r.estimate, e2 - mean_sq_min);
      return r;
    }
    case AggFunc::kMin: {
      r.estimate = std::numeric_limits<double>::infinity();
      r.lower = std::numeric_limits<double>::infinity();
      r.upper = std::numeric_limits<double>::infinity();
      for (const PartialAggregate* p : live) {
        r.estimate = std::min(r.estimate, p->value.estimate);
        r.lower = std::min(r.lower, p->value.lower);
        r.upper = std::min(r.upper, p->value.upper);
      }
      r.lower = std::min(r.lower, r.estimate);
      r.upper = std::max(r.upper, r.estimate);
      return r;
    }
    case AggFunc::kMax: {
      r.estimate = -std::numeric_limits<double>::infinity();
      r.lower = -std::numeric_limits<double>::infinity();
      r.upper = -std::numeric_limits<double>::infinity();
      for (const PartialAggregate* p : live) {
        r.estimate = std::max(r.estimate, p->value.estimate);
        r.lower = std::max(r.lower, p->value.lower);
        r.upper = std::max(r.upper, p->value.upper);
      }
      r.lower = std::min(r.lower, r.estimate);
      r.upper = std::max(r.upper, r.estimate);
      return r;
    }
    case AggFunc::kCount:
    case AggFunc::kMedian:
      break;  // handled above
  }
  return r;
}

void MergePartialResults(AggFunc func, bool grouped,
                         const PartialResult* parts, size_t n,
                         QueryResult* out, const KernelOps* ks) {
  // Overwrite the caller's warm group slots; grouped results drop groups
  // with no answer, mirroring the per-segment filtering.
  size_t used = 0;
  auto emit = [&](const std::string& label, const AggResult& agg) {
    if (grouped && (agg.empty_selection ||
                    (func == AggFunc::kCount && agg.estimate <= 0.5))) {
      return;
    }
    if (used == out->groups.size()) {
      out->groups.push_back(QueryResult::Group{label, agg});
    } else {
      out->groups[used].label = label;
      out->groups[used].agg = agg;
    }
    ++used;
  };

  const PartialResult* carrier = nullptr;
  size_t carriers = 0;
  for (size_t i = 0; i < n; ++i) {
    if (parts[i].groups.empty()) continue;
    carrier = &parts[i];
    ++carriers;
  }
  if (carriers == 0) {
    // Every segment was pruned or empty: a scalar query still returns one
    // group.
    if (!grouped) emit(std::string(), EmptyResult(func));
  } else if (carriers == 1) {
    // A merge of one part is the identity: the segment's own answers.
    for (const PartialResult::Group& g : carrier->groups) {
      emit(g.label, g.agg.value);
    }
  } else {
    // Label -> index into the merged order (first seen, walking segments
    // in order — deterministic), then collect per-label partial lists.
    // Hashed lookup keeps high-cardinality GROUP BY merges linear.
    std::vector<std::string> labels;
    std::vector<std::vector<const PartialAggregate*>> by_label;
    std::unordered_map<std::string, size_t> index;
    for (size_t i = 0; i < n; ++i) {
      for (const PartialResult::Group& g : parts[i].groups) {
        auto [it, inserted] = index.emplace(g.label, labels.size());
        if (inserted) {
          labels.push_back(g.label);
          by_label.emplace_back();
        }
        by_label[it->second].push_back(&g.agg);
      }
    }
    for (size_t i = 0; i < labels.size(); ++i) {
      emit(labels[i], MergePartials(func, by_label[i], ks));
    }
  }
  out->groups.resize(used);
}

}  // namespace pairwisehist
