#include "core/pairwise_hist.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"

namespace pairwisehist {

size_t PairwiseHist::PairSlot(size_t i, size_t j) {
  // i > j; slots are laid out in Algorithm 1's loop order.
  return i * (i - 1) / 2 + j;
}

StatusOr<size_t> PairwiseHist::ColumnIndex(const std::string& name) const {
  for (size_t c = 0; c < transforms_.size(); ++c) {
    if (transforms_[c].name == name) return c;
  }
  return Status::NotFound("column '" + name + "' not in synopsis");
}

PairView PairwiseHist::GetPair(size_t agg_col, size_t pred_col) const {
  if (agg_col == pred_col || agg_col >= num_columns() ||
      pred_col >= num_columns()) {
    return PairView();
  }
  if (agg_col > pred_col) {
    return PairView(&pairs_[PairSlot(agg_col, pred_col)], /*swapped=*/false);
  }
  return PairView(&pairs_[PairSlot(pred_col, agg_col)], /*swapped=*/true);
}

CentreBounds PairwiseHist::WeightedCentreBounds(const HistogramDim& dim,
                                                size_t t) const {
  CentreBounds b;
  const uint64_t h = dim.counts[t];
  const uint64_t u = dim.unique[t];
  const double v_lo = dim.v_min[t];
  const double v_hi = dim.v_max[t];
  if (h == 0 || u <= 1) {
    b.lo = v_lo;
    b.hi = v_hi;
    return b;
  }
  if (h < min_points_) {
    // Non-passing bin: h-u+1 points may sit at one extremum with the other
    // unique values packed µ=1 apart next to it (Eq. 10 upper case).
    const double shift =
        static_cast<double>(u - 1) * static_cast<double>(u) /
        (2.0 * static_cast<double>(h));
    b.lo = v_lo + shift;
    b.hi = v_hi - shift;
  } else {
    // Passing bin: Theorem 1.
    const int s = TerrellScottSubBins(u);
    const double delta = (v_hi - v_lo) / s;
    const double chi2 = critical_->Get(s - 1);
    const double spread =
        delta / 6.0 *
        std::sqrt(3.0 * chi2 * (static_cast<double>(s) * s - 1.0) /
                  static_cast<double>(h));
    b.lo = v_lo + (s - 1) * delta / 2.0 - spread;
    b.hi = v_lo + (s + 1) * delta / 2.0 + spread;
  }
  b.lo = std::clamp(b.lo, v_lo, v_hi);
  b.hi = std::clamp(b.hi, b.lo, v_hi);
  return b;
}

std::vector<uint32_t> SampleRows(size_t n, size_t ns, uint64_t seed) {
  std::vector<uint32_t> rows;
  if (ns >= n) {
    rows.resize(n);
    for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
    return rows;
  }
  Rng rng(seed);
  std::vector<uint32_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
  for (size_t i = 0; i < ns; ++i) {
    size_t j = i + static_cast<size_t>(rng.UniformInt(uint64_t(n - i)));
    std::swap(all[i], all[j]);
  }
  // The drawn rows in ascending order: mark them, then scan the n rows.
  std::vector<uint8_t> drawn(n, 0);
  for (size_t i = 0; i < ns; ++i) drawn[all[i]] = 1;
  size_t out = 0;
  for (size_t r = 0; r < n; ++r) {
    if (drawn[r] != 0) all[out++] = static_cast<uint32_t>(r);
  }
  all.resize(ns);
  return all;
}

namespace {

// Initial 1-d bin edges for one column: either GreedyGD base-aligned edges
// (downsampled to at most `max_edges` interior values) or just {min, max+1}.
// `lo` / `hi` are the min and max non-null codes present in the sample.
std::vector<double> InitialEdges(const std::vector<uint64_t>* base_values,
                                 size_t max_edges, double lo, double hi) {
  std::vector<double> edges;
  edges.push_back(lo);
  if (base_values != nullptr && !base_values->empty() && max_edges > 2) {
    // Keep base edges strictly inside (lo, hi], downsampled evenly.
    std::vector<double> interior;
    interior.reserve(base_values->size());
    for (uint64_t v : *base_values) {
      double e = static_cast<double>(v);
      if (e > lo && e <= hi) interior.push_back(e);
    }
    size_t stride =
        std::max<size_t>(1, (interior.size() + max_edges - 1) / max_edges);
    for (size_t i = 0; i < interior.size(); i += stride) {
      edges.push_back(interior[i]);
    }
  }
  edges.push_back(hi + 1.0);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

// Per 1-d bin of the pair dimension's column: fraction of 1-d rows that the
// pair's marginal counts cover (i.e. rows where the OTHER column is also
// non-null). Mirrors the accumulation of the test oracle's dense
// cross-column walk (parent-grouped sums in ascending refined-bin order,
// tests/oracle/) so the engine reads identical doubles.
std::vector<double> NonNullFractions(const HistogramDim& pair_dim,
                                     const HistogramDim& h1) {
  const size_t k1 = h1.NumBins();
  const size_t ka = pair_dim.NumBins();
  std::vector<double> rows(k1, 0.0);
  for (size_t ta = 0; ta < ka; ++ta) {
    size_t parent = pair_dim.parent.empty() ? ta : pair_dim.parent[ta];
    rows[parent] += static_cast<double>(pair_dim.counts[ta]);
  }
  std::vector<double> frac(k1, 1.0);
  for (size_t t = 0; t < k1; ++t) {
    double h = static_cast<double>(h1.counts[t]);
    if (h <= 0) continue;
    frac[t] = std::clamp(rows[t] / h, 0.0, 1.0);
  }
  return frac;
}

}  // namespace

void PairwiseHist::FinishExecIndex() {
  // Any dimension can serve as an aggregation grid, so every dimension
  // gets the per-bin centre cache (midpoint + Theorem-1 bounds) that
  // Table-3 aggregation reads as flat arrays.
  auto fill_centres = [this](HistogramDim& dim) {
    const size_t k = dim.NumBins();
    std::vector<double> mid(k), lo(k), hi(k);
    for (size_t t = 0; t < k; ++t) {
      mid[t] = dim.Midpoint(t);
      CentreBounds cb = WeightedCentreBounds(dim, t);
      lo[t] = cb.lo;
      hi[t] = cb.hi;
    }
    dim.centre_mid = std::move(mid);
    dim.centre_lo = std::move(lo);
    dim.centre_hi = std::move(hi);
  };
  for (HistogramDim& h : hist1d_) {
    h.BuildCountPrefix();
    fill_centres(h);
  }
  for (PairHistogram& p : pairs_) {
    p.BuildCellPrefix();
    p.nonnull_frac_i = NonNullFractions(p.dim_i, hist1d_[p.col_i]);
    p.nonnull_frac_j = NonNullFractions(p.dim_j, hist1d_[p.col_j]);
    fill_centres(p.dim_i);
    fill_centres(p.dim_j);
  }
}

StatusOr<PairwiseHist> PairwiseHist::Build(const PreprocessedTable& pre,
                                           const CompressedTable* gd,
                                           const PairwiseHistConfig& config) {
  const size_t d = pre.NumColumns();
  const size_t n = pre.NumRows();
  if (d == 0) return Status::InvalidArgument("Build: no columns");
  if (n == 0) return Status::InvalidArgument("Build: no rows");

  PairwiseHist out;
  out.transforms_ = pre.transforms;
  out.total_rows_ = n;
  size_t ns = config.sample_size == 0 ? n : std::min(config.sample_size, n);
  out.sample_rows_ = ns;
  out.min_points_ =
      config.min_points_override > 0
          ? config.min_points_override
          : std::max<uint64_t>(
                2, static_cast<uint64_t>(
                       std::llround(config.min_points_fraction * ns)));
  out.alpha_ = config.alpha;
  out.critical_ = SharedChi2CriticalCache(config.alpha);

  RefineConfig refine;
  refine.min_points = out.min_points_;
  refine.alpha = config.alpha;

  std::vector<uint32_t> rows = SampleRows(n, ns, config.seed);

  // ---- 1-d histograms ----------------------------------------------------
  // Each column is sorted and binned once; the ranks serve its 1-d
  // histogram here and then every pair it belongs to.
  std::vector<ColumnRanks> ranks;
  ranks.reserve(d);
  out.hist1d_.resize(d);
  const size_t max_edges = static_cast<size_t>(
      std::ceil(static_cast<double>(ns) / out.min_points_));
  for (size_t c = 0; c < d; ++c) {
    std::vector<double> values(rows.size());
    for (size_t p = 0; p < rows.size(); ++p) {
      uint64_t code = pre.codes[c][rows[p]];
      values[p] = code == kMissingCode ? std::nan("")
                                       : static_cast<double>(code);
    }
    ColumnRanks& rc = ranks.emplace_back(std::move(values));
    if (rc.order.empty()) {
      // All-null column: degenerate single empty bin.
      out.hist1d_[c] = BuildHistogram1D({}, {1.0, 2.0}, refine,
                                        *out.critical_);
    } else {
      std::vector<uint64_t> bases;
      const std::vector<uint64_t>* bases_ptr = nullptr;
      if (gd != nullptr && config.use_bases_for_edges) {
        bases = gd->ColumnBaseValues(c);
        bases_ptr = &bases;
      }
      std::vector<double> sorted = rc.SortedValues();
      std::vector<double> edges =
          InitialEdges(bases_ptr, max_edges, sorted.front(), sorted.back());
      out.hist1d_[c] = BuildHistogram1D(sorted, edges, refine,
                                        *out.critical_);
    }
    rc.AssignBins(out.hist1d_[c]);
  }

  // ---- 2-d histograms ----------------------------------------------------
  // The d(d-1)/2 pair builds are independent and individually deterministic,
  // so they fan out over the shared work-counter pool, each reading the
  // shared ranks and writing its fixed PairSlot — the result is identical
  // for any thread count or scheduling.
  if (d > 1) {
    const size_t npairs = d * (d - 1) / 2;
    out.pairs_.resize(npairs);
    std::vector<std::pair<uint32_t, uint32_t>> work;
    work.reserve(npairs);
    for (size_t i = 1; i < d; ++i) {
      for (size_t j = 0; j < i; ++j) {
        work.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
      }
    }

    ParallelFor(work.size(), config.build_threads, [&](size_t w) {
      const uint32_t i = work[w].first;
      const uint32_t j = work[w].second;
      out.pairs_[PairSlot(i, j)] = BuildPairHistogram(
          ranks[i], ranks[j], i, j, out.hist1d_[i], out.hist1d_[j], refine,
          *out.critical_);
    });
  }
  ranks = {};  // release the ranks before the execution index is built
  out.FinishExecIndex();
  return out;
}

StatusOr<PairwiseHist> PairwiseHist::BuildFromTable(
    const Table& table, const PairwiseHistConfig& cfg) {
  PH_ASSIGN_OR_RETURN(PreprocessedTable pre, Preprocess(table));
  return Build(pre, nullptr, cfg);
}

StatusOr<PairwiseHist> PairwiseHist::BuildFromCompressed(
    const CompressedTable& gd, const PairwiseHistConfig& cfg) {
  PreprocessedTable pre = gd.DecompressCodes();
  return Build(pre, &gd, cfg);
}

}  // namespace pairwisehist
