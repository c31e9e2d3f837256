#include "hist/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace pairwisehist {

size_t HistogramDim::BinIndex(double value) const {
  // upper_bound - 1: first edge strictly greater than value, minus one.
  auto it = std::upper_bound(edges.begin(), edges.end(), value);
  if (it == edges.begin()) return 0;
  size_t t = static_cast<size_t>(it - edges.begin()) - 1;
  if (t >= NumBins()) t = NumBins() - 1;
  return t;
}

uint64_t HistogramDim::TotalCount() const {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

void HistogramDim::BuildCountPrefix(ArrayHolder* arrays) {
  const size_t k = NumBins();
  std::vector<uint64_t> pre(k + 1, 0);
  for (size_t t = 0; t < k; ++t) pre[t + 1] = pre[t] + counts[t];
  count_prefix = arrays->Keep(std::move(pre));
}

void PairHistogram::BuildCellPrefix(std::span<const uint64_t> cells,
                                    ArrayHolder* arrays) {
  const size_t ki = dim_i.NumBins();
  const size_t kj = dim_j.NumBins();
  // Row tp + 1 of each orientation is row tp plus the matching cell
  // column (colpre_i) or cell row (colpre_j).
  std::vector<uint64_t> colpre_i((kj + 1) * ki, 0);
  for (size_t tp = 0; tp < kj; ++tp) {
    const uint64_t* prev = colpre_i.data() + tp * ki;
    uint64_t* next = colpre_i.data() + (tp + 1) * ki;
    for (size_t ti = 0; ti < ki; ++ti) {
      next[ti] = prev[ti] + cells[ti * kj + tp];
    }
  }
  std::vector<uint64_t> colpre_j((ki + 1) * kj, 0);
  for (size_t tp = 0; tp < ki; ++tp) {
    const uint64_t* prev = colpre_j.data() + tp * kj;
    uint64_t* next = colpre_j.data() + (tp + 1) * kj;
    const uint64_t* row = cells.data() + tp * kj;
    for (size_t tj = 0; tj < kj; ++tj) {
      next[tj] = prev[tj] + row[tj];
    }
  }
  cell_colpre_i = arrays->Keep(std::move(colpre_i));
  cell_colpre_j = arrays->Keep(std::move(colpre_j));
}

namespace {

// Midpoint snapped to the half-integer grid (see the comment at the use
// site). Falls back to the exact midpoint if snapping would leave the bin.
double SplitPoint(double lower, double upper) {
  double mid = (lower + upper) / 2.0;
  double snapped = std::floor(mid) + 0.5;
  if (snapped > lower && snapped < upper) return snapped;
  return mid;
}

// A 1-d histogram's arrays while RefineBin1D appends to them; moved into
// the HistogramDim once every bin is emitted.
struct Bins1D {
  std::vector<double> edges, v_min, v_max;
  std::vector<uint64_t> unique, counts;
};

// Appends one finished bin's metadata.
void EmitBin(Bins1D* out, double upper_edge, double v_min, double v_max,
             uint64_t unique, uint64_t count) {
  out->edges.push_back(upper_edge);
  out->v_min.push_back(v_min);
  out->v_max.push_back(v_max);
  out->unique.push_back(unique);
  out->counts.push_back(count);
}

// Algorithm 2 (RefineBin1D): recursively split [lower, upper) over the
// sorted values [begin, end) until each bin is uniform or unsplittable.
// Emits finished bins (in ascending order) into `out`.
void RefineBin1D(const double* begin, const double* end, double lower,
                 double upper, int depth, const RefineConfig& config,
                 const Chi2CriticalCache& critical, Bins1D* out) {
  const size_t n = static_cast<size_t>(end - begin);
  if (n == 0) {
    // Empty bin: keep the slot with edge metadata (Algorithm 2 line 4).
    EmitBin(out, upper, lower, upper, 0, 0);
    return;
  }
  uint64_t u = CountUniqueSorted(begin, end);
  if (u == 1) {
    EmitBin(out, upper, *begin, *begin, 1, n);
    return;
  }
  bool splittable = n >= config.min_points && depth < config.max_depth &&
                    (upper - lower) > config.min_width;
  if (splittable) {
    UniformityResult test =
        TestUniform(begin, end, lower, upper, u, critical);
    splittable = !test.uniform;
  }
  if (!splittable) {
    EmitBin(out, upper, *begin, *(end - 1), u, n);
    return;
  }
  // Equal-width split at the bin midpoint (the paper found equal-width
  // slightly better than equal-depth). The midpoint is snapped to a
  // half-integer so every edge stays on the 0.5 grid of the integer code
  // domain — which keeps edges exactly representable in the compact
  // storage encoding (all edges x2 are integers).
  double z = SplitPoint(lower, upper);
  const double* mid = std::lower_bound(begin, end, z);
  RefineBin1D(begin, mid, lower, z, depth + 1, config, critical, out);
  RefineBin1D(mid, end, z, upper, depth + 1, config, critical, out);
}

// Merge-walk cursor over a dimension's ascending edges: fed ascending
// values, Advance returns the bin HistogramDim::BinIndex would (the last
// bin t with edges[t] <= v, clamped to [0, k-1]) in amortized O(1).
class EdgeWalk {
 public:
  explicit EdgeWalk(std::span<const double> edges)
      : edges_(edges.data()),
        last_(edges.size() < 2 ? 0 : edges.size() - 2) {}
  size_t Advance(double v) {
    while (t_ < last_ && edges_[t_ + 1] <= v) ++t_;
    return t_;
  }

 private:
  const double* edges_;
  size_t last_;
  size_t t_ = 0;
};

}  // namespace

HistogramDim BuildHistogram1D(const std::vector<double>& sorted_values,
                              const std::vector<double>& initial_edges,
                              const RefineConfig& config,
                              const Chi2CriticalCache& critical,
                              ArrayHolder* arrays) {
  HistogramDim dim;
  if (initial_edges.size() < 2) return dim;
  Bins1D out;
  out.edges.push_back(initial_edges.front());
  const double* data = sorted_values.data();
  const double* data_end = data + sorted_values.size();
  const double* cursor = data;
  for (size_t t = 0; t + 1 < initial_edges.size(); ++t) {
    double lower = initial_edges[t];
    double upper = initial_edges[t + 1];
    const double* next = (t + 2 == initial_edges.size())
                             ? data_end
                             : std::lower_bound(cursor, data_end, upper);
    RefineBin1D(cursor, next, lower, upper, 0, config, critical, &out);
    cursor = next;
  }
  dim.edges = arrays->Keep(std::move(out.edges));
  dim.v_min = arrays->Keep(std::move(out.v_min));
  dim.v_max = arrays->Keep(std::move(out.v_max));
  dim.unique = arrays->Keep(std::move(out.unique));
  dim.counts = arrays->Keep(std::move(out.counts));
  return dim;
}

ColumnRanks::ColumnRanks(std::vector<double> values)
    : value(std::move(values)) {
  // Order-preserving image of each non-null value: adding 0.0 folds -0.0
  // into +0.0 (they compare equal), then negatives flip every bit and
  // non-negatives set the sign bit, so unsigned key order is value order.
  std::vector<uint64_t> key(value.size());
  order.reserve(value.size());
  for (size_t p = 0; p < value.size(); ++p) {
    if (std::isnan(value[p])) continue;
    const uint64_t bits = std::bit_cast<uint64_t>(value[p] + 0.0);
    key[p] = (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
    order.push_back(static_cast<uint32_t>(p));
  }
  const size_t n = order.size();
  uint64_t differ = 0;
  for (uint32_t p : order) differ |= key[p] ^ key[order[0]];
  if (differ == 0) return;

  // Stable LSD counting passes over only the bits in which keys differ,
  // in digits of at most kMaxDigitBits split evenly. `order` starts in
  // ascending position and every pass is stable, so ties stay ordered by
  // position: the order a comparison sort of (value, position) gives.
  constexpr int kMaxDigitBits = 11;
  const int low = std::countr_zero(differ);
  const int span = 64 - std::countl_zero(differ) - low;
  const int passes = (span + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (span + passes - 1) / passes;
  const uint64_t mask = (uint64_t{1} << digit_bits) - 1;
  std::vector<uint32_t> count(size_t{1} << digit_bits);
  std::vector<uint32_t> other(n);
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = low + pass * digit_bits;
    std::fill(count.begin(), count.end(), 0);
    for (uint32_t p : order) ++count[(key[p] >> shift) & mask];
    uint32_t sum = 0;
    for (uint32_t& c : count) sum += std::exchange(c, sum);
    for (uint32_t p : order) other[count[(key[p] >> shift) & mask]++] = p;
    order.swap(other);
  }
}

std::vector<double> ColumnRanks::SortedValues() const {
  std::vector<double> sorted(order.size());
  for (size_t k = 0; k < order.size(); ++k) sorted[k] = value[order[k]];
  return sorted;
}

void ColumnRanks::AssignBins(const HistogramDim& h1) {
  bin.assign(value.size(), kNullBin);
  bin_start.assign(h1.NumBins() + 1, static_cast<uint32_t>(order.size()));
  EdgeWalk walk(h1.edges);
  uint32_t next = 0;  // the first bin whose start is not yet known
  for (uint32_t r = 0; r < order.size(); ++r) {
    const uint32_t p = order[r];
    bin[p] = static_cast<uint32_t>(walk.Advance(value[p]));
    while (next <= bin[p]) bin_start[next++] = r;
  }
}

namespace {

// RefineBin2D over one pair's rows. Each rectangle's rows are carried twice,
// as the range [begin, end) of two position lists: `by_i_` in ascending
// value of column i and `by_j_` in ascending value of column j. A node reads
// its sorted values by gathering a list (no sort); a split at z on one
// dimension cuts that dimension's list at a binary-searched point and
// stable-partitions the other list, so both halves stay sorted.
class PairRefiner {
 public:
  PairRefiner(const ColumnRanks& ri, const ColumnRanks& rj,
              const RefineConfig& config, const Chi2CriticalCache& critical,
              PairBuildScratch* s)
      : vi_(ri.value.data()),
        vj_(rj.value.data()),
        by_i_(s->by_i.data()),
        by_j_(s->by_j.data()),
        config_(config),
        critical_(critical),
        new_edges_i_(&s->dim_i.new_edges),
        new_edges_j_(&s->dim_j.new_edges),
        values_(s->values),
        upper_(s->upper) {}

  // Recursively splits the rectangle until both dimensions test uniform or
  // the point count / width floor stops us. New interior edges apply to the
  // whole row or column of this pair's histogram (the paper's Fig. 5).
  void Refine(size_t begin, size_t end, double lo_i, double hi_i,
              double lo_j, double hi_j, int depth) {
    if (end - begin <= config_.min_points || depth >= config_.max_depth) {
      return;
    }
    uint64_t ui = 0, uj = 0;
    UniformityResult ti = Test(vi_, by_i_, begin, end, lo_i, hi_i, &ui);
    UniformityResult tj = Test(vj_, by_j_, begin, end, lo_j, hi_j, &uj);

    bool can_split_i =
        !ti.uniform && ui > 1 && (hi_i - lo_i) > config_.min_width;
    bool can_split_j =
        !tj.uniform && uj > 1 && (hi_j - lo_j) > config_.min_width;
    if (!can_split_i && !can_split_j) return;

    // Split the least uniform dimension (largest statistic/critical ratio).
    bool split_i = can_split_i && (!can_split_j || ti.Ratio() >= tj.Ratio());
    if (split_i) {
      double z = SplitPoint(lo_i, hi_i);
      new_edges_i_->push_back(z);
      size_t mid = Split(vi_, by_i_, by_j_, begin, end, z);
      Refine(begin, mid, lo_i, z, lo_j, hi_j, depth + 1);
      Refine(mid, end, z, hi_i, lo_j, hi_j, depth + 1);
    } else {
      double z = SplitPoint(lo_j, hi_j);
      new_edges_j_->push_back(z);
      size_t mid = Split(vj_, by_j_, by_i_, begin, end, z);
      Refine(begin, mid, lo_i, hi_i, lo_j, z, depth + 1);
      Refine(mid, end, lo_i, hi_i, z, hi_j, depth + 1);
    }
  }

 private:
  // Uniformity test of one dimension over the rectangle's sorted values.
  UniformityResult Test(const double* v, const uint32_t* sorted,
                        size_t begin, size_t end, double lo, double hi,
                        uint64_t* unique) {
    values_.resize(end - begin);
    for (size_t k = begin; k < end; ++k) values_[k - begin] = v[sorted[k]];
    const double* first = values_.data();
    const double* last = first + values_.size();
    *unique = CountUniqueSorted(first, last);
    return TestUniform(first, last, lo, hi, *unique, critical_);
  }

  // Splits [begin, end) at `z` on the dimension with values `v`: `cut` is
  // that dimension's sorted list (already partitioned: rows below z come
  // first), `other` is stable-partitioned to match. Returns the first
  // index of the upper half.
  size_t Split(const double* v, const uint32_t* cut, uint32_t* other,
               size_t begin, size_t end, double z) {
    const size_t mid = static_cast<size_t>(
        std::partition_point(cut + begin, cut + end,
                             [v, z](uint32_t p) { return v[p] < z; }) -
        cut);
    upper_.clear();
    size_t lower = begin;
    for (size_t k = begin; k < end; ++k) {
      const uint32_t p = other[k];
      if (v[p] < z) {
        other[lower++] = p;
      } else {
        upper_.push_back(p);
      }
    }
    std::copy(upper_.begin(), upper_.end(), other + lower);
    return mid;
  }

  const double* vi_;
  const double* vj_;
  uint32_t* by_i_;
  uint32_t* by_j_;
  const RefineConfig& config_;
  const Chi2CriticalCache& critical_;
  std::vector<double>* new_edges_i_;
  std::vector<double>* new_edges_j_;
  std::vector<double>& values_;
  std::vector<uint32_t>& upper_;
};

constexpr uint32_t kNoSlot = UINT32_MAX;

// Sizes a scratch array to n copies of `value`. Its capacity grows at least
// twofold when it must grow, so a worker reallocates each array a few times
// per build however its pairs' sizes vary.
template <typename T>
void AssignScratch(std::vector<T>* v, size_t n, T value) {
  if (n > v->capacity()) v->reserve(std::max(n, 2 * v->capacity()));
  v->assign(n, value);
}

// The union of the ascending 1-d edges `base` and the ascending, distinct
// new edges `extra`, in one linear merge; `first` receives, per base edge,
// its index among the merged edges, so 1-d bin t0 splits into the refined
// bins [first[t0], first[t0 + 1]).
std::vector<double> MergeEdges(std::span<const double> base,
                               std::span<const double> extra,
                               std::vector<uint32_t>* first) {
  std::vector<double> all;
  all.reserve(base.size() + extra.size());
  AssignScratch<uint32_t>(first, base.size(), 0);
  size_t e = 0;
  for (size_t t = 0; t < base.size(); ++t) {
    for (; e < extra.size() && extra[e] <= base[t]; ++e) {
      if (extra[e] < base[t]) all.push_back(extra[e]);
    }
    (*first)[t] = static_cast<uint32_t>(all.size());
    all.push_back(base[t]);
  }
  all.insert(all.end(), extra.begin() + e, extra.end());
  return all;
}

// One refined dimension of the pair over its rows, the positions of `mine`
// whose `other` value is non-null, after the refinement left its split
// points in `ds->new_edges`: the merged edges, and counts, v±, unique and
// parent per refined bin. Parents come from `ds->first`. A 1-d bin that
// kept its edges copies the 1-d histogram's metadata when `other` has no
// null (its rows are then all of the 1-d bin's rows); any other 1-d bin
// walks its own order slice, and a split one records each walked row's
// refined bin in `ds->row_bin`. The arrays are kept in `arrays`.
HistogramDim RefinedDim(const ColumnRanks& mine, const ColumnRanks& other,
                        const HistogramDim& h1, PairBuildScratch::Dim* ds,
                        ArrayHolder* arrays) {
  std::vector<double>& extra = ds->new_edges;
  std::sort(extra.begin(), extra.end());
  extra.erase(std::unique(extra.begin(), extra.end()), extra.end());
  std::vector<double> edges = MergeEdges(h1.edges, extra, &ds->first);
  const size_t k = edges.size() - 1;
  std::vector<uint64_t> counts(k, 0), unique(k, 0);
  std::vector<double> v_min(k), v_max(k);
  std::vector<uint32_t> parent(k);
  const bool other_has_null = other.order.size() < other.value.size();
  for (size_t t0 = 0; t0 < h1.NumBins(); ++t0) {
    const size_t r0 = ds->first[t0];
    const size_t r1 = ds->first[t0 + 1];
    std::fill(parent.begin() + r0, parent.begin() + r1,
              static_cast<uint32_t>(t0));
    const bool split = r1 - r0 > 1;
    if (!split && !other_has_null) {
      counts[r0] = h1.counts[t0];
      v_min[r0] = h1.v_min[t0];
      v_max[r0] = h1.v_max[t0];
      unique[r0] = h1.unique[t0];
      continue;
    }
    for (size_t t = r0; t < r1; ++t) {
      // Empty-bin defaults mirror RefineBin1D's convention.
      v_min[t] = edges[t];
      v_max[t] = edges[t + 1];
    }
    size_t t = r0;
    for (uint32_t r = mine.bin_start[t0]; r < mine.bin_start[t0 + 1]; ++r) {
      const uint32_t p = mine.order[r];
      if (other.IsNull(p)) continue;
      const double v = mine.value[p];
      while (t + 1 < r1 && edges[t + 1] <= v) ++t;
      if (split) ds->row_bin[p] = static_cast<uint32_t>(t);
      if (counts[t] == 0) {
        v_min[t] = v;
        unique[t] = 1;
      } else if (v != v_max[t]) {
        ++unique[t];
      }
      v_max[t] = v;
      ++counts[t];
    }
  }
  HistogramDim dim;
  dim.edges = arrays->Keep(std::move(edges));
  dim.counts = arrays->Keep(std::move(counts));
  dim.v_min = arrays->Keep(std::move(v_min));
  dim.v_max = arrays->Keep(std::move(v_max));
  dim.unique = arrays->Keep(std::move(unique));
  dim.parent = arrays->Keep(std::move(parent));
  return dim;
}

// The refined bin of position p in one dimension: the 1-d bin's only
// refined bin, or the one the metadata walk recorded for a split 1-d bin.
uint32_t RefinedBin(const PairBuildScratch::Dim& ds, uint32_t bin1d,
                    uint32_t p) {
  const uint32_t r0 = ds.first[bin1d];
  return ds.first[bin1d + 1] - r0 > 1 ? ds.row_bin[p] : r0;
}

}  // namespace

PairHistogram BuildPairHistogram(const ColumnRanks& ri, const ColumnRanks& rj,
                                 uint32_t col_i, uint32_t col_j,
                                 const HistogramDim& h1_i,
                                 const HistogramDim& h1_j,
                                 const RefineConfig& config,
                                 const Chi2CriticalCache& critical,
                                 PairBuildScratch* s, ArrayHolder* arrays) {
  PairHistogram ph;
  ph.col_i = col_i;
  ph.col_j = col_j;
  const size_t ki0 = h1_i.NumBins();
  const size_t kj0 = h1_j.NumBins();
  const size_t positions = ri.value.size();
  constexpr uint32_t kNull = ColumnRanks::kNullBin;
  // The row-sized temporaries get their whole size on a worker's first
  // pair, so they never grow block by block.
  s->by_i.reserve(positions);
  s->by_j.reserve(positions);
  s->values.reserve(positions);
  s->upper.reserve(positions);
  s->dim_i.row_bin.resize(positions);
  s->dim_j.row_bin.resize(positions);

  // Initial cells on the 1-d edges: one sequential pass over the positions.
  std::vector<uint64_t>& cells = s->cells;
  AssignScratch<uint64_t>(&cells, ki0 * kj0, 0);
  for (size_t p = 0; p < positions; ++p) {
    const uint32_t bi = ri.bin[p];
    const uint32_t bj = rj.bin[p];
    if (bi != kNull && bj != kNull) ++cells[size_t{bi} * kj0 + bj];
  }

  // Over-full cells get a slot and a range of `offset`, and mark the 1-d
  // bins that hold them; their rows are the only ones refinement reads.
  AssignScratch(&s->slot, ki0 * kj0, kNoSlot);
  s->offset.clear();
  AssignScratch<uint8_t>(&s->dim_i.holds_full, ki0, 0);
  AssignScratch<uint8_t>(&s->dim_j.holds_full, kj0, 0);
  uint32_t full_rows = 0;
  for (size_t c = 0; c < ki0 * kj0; ++c) {
    if (cells[c] <= config.min_points) continue;
    s->slot[c] = static_cast<uint32_t>(s->offset.size());
    s->offset.push_back(full_rows);
    full_rows += static_cast<uint32_t>(cells[c]);
    s->dim_i.holds_full[c / kj0] = 1;
    s->dim_j.holds_full[c % kj0] = 1;
  }
  s->offset.push_back(full_rows);

  // Group each over-full cell's rows twice, in each column's order, by
  // walking only the order slices of the 1-d bins holding such a cell, so
  // every cell starts with both of its lists sorted.
  s->dim_i.new_edges.clear();
  s->dim_j.new_edges.clear();
  if (full_rows > 0) {
    s->by_i.resize(full_rows);
    s->by_j.resize(full_rows);
    const size_t nfull = s->offset.size() - 1;
    AssignScratch<uint32_t>(&s->cursor, nfull, 0);
    std::copy_n(s->offset.begin(), nfull, s->cursor.begin());
    for (size_t ti = 0; ti < ki0; ++ti) {
      if (!s->dim_i.holds_full[ti]) continue;
      const uint32_t* row_slot = s->slot.data() + ti * kj0;
      for (uint32_t r = ri.bin_start[ti]; r < ri.bin_start[ti + 1]; ++r) {
        const uint32_t p = ri.order[r];
        const uint32_t bj = rj.bin[p];
        if (bj == kNull || row_slot[bj] == kNoSlot) continue;
        s->by_i[s->cursor[row_slot[bj]]++] = p;
      }
    }
    std::copy_n(s->offset.begin(), nfull, s->cursor.begin());
    for (size_t tj = 0; tj < kj0; ++tj) {
      if (!s->dim_j.holds_full[tj]) continue;
      for (uint32_t r = rj.bin_start[tj]; r < rj.bin_start[tj + 1]; ++r) {
        const uint32_t p = rj.order[r];
        const uint32_t bi = ri.bin[p];
        if (bi == kNull) continue;
        const uint32_t slot = s->slot[size_t{bi} * kj0 + tj];
        if (slot != kNoSlot) s->by_j[s->cursor[slot]++] = p;
      }
    }

    // Refine each over-full cell; gather new edges per dimension.
    PairRefiner refiner(ri, rj, config, critical, s);
    for (size_t c = 0; c < ki0 * kj0; ++c) {
      const uint32_t slot = s->slot[c];
      if (slot == kNoSlot) continue;
      const size_t ti = c / kj0;
      const size_t tj = c % kj0;
      refiner.Refine(s->offset[slot], s->offset[slot + 1], h1_i.edges[ti],
                     h1_i.edges[ti + 1], h1_j.edges[tj], h1_j.edges[tj + 1],
                     0);
    }
  }

  ph.dim_i = RefinedDim(ri, rj, h1_i, &s->dim_i, arrays);
  ph.dim_j = RefinedDim(rj, ri, h1_j, &s->dim_j, arrays);

  // Final cell counts on the refined grid: the initial ones unless an edge
  // was gained.
  const size_t ki = ph.dim_i.NumBins();
  const size_t kj = ph.dim_j.NumBins();
  if (ki != ki0 || kj != kj0) {
    AssignScratch<uint64_t>(&cells, ki * kj, 0);
    for (uint32_t p = 0; p < positions; ++p) {
      const uint32_t bi = ri.bin[p];
      const uint32_t bj = rj.bin[p];
      if (bi == kNull || bj == kNull) continue;
      ++cells[size_t{RefinedBin(s->dim_i, bi, p)} * kj +
              RefinedBin(s->dim_j, bj, p)];
    }
  }
  ph.BuildCellPrefix(cells, arrays);
  return ph;
}

}  // namespace pairwisehist
