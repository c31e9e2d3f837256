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

void HistogramDim::BuildCountPrefix() {
  const size_t k = NumBins();
  std::vector<uint64_t> pre(k + 1, 0);
  for (size_t t = 0; t < k; ++t) pre[t + 1] = pre[t] + counts[t];
  count_prefix = std::move(pre);
}

void PairHistogram::BuildCellPrefix() {
  const size_t ki = dim_i.NumBins();
  const size_t kj = dim_j.NumBins();
  // Dense per-row cell prefixes (exact: totals stay below 2^53). Costs
  // 2x the dense cell matrix in memory, all execution-index-only.
  std::vector<uint64_t> prefix_i(ki * (kj + 1));
  for (size_t ti = 0; ti < ki; ++ti) {
    const uint64_t* row = cells.data() + ti * kj;
    uint64_t* pre = prefix_i.data() + ti * (kj + 1);
    pre[0] = 0;
    for (size_t tj = 0; tj < kj; ++tj) pre[tj + 1] = pre[tj] + row[tj];
  }
  std::vector<uint64_t> prefix_j(kj * (ki + 1));
  for (size_t tj = 0; tj < kj; ++tj) {
    uint64_t* pre = prefix_j.data() + tj * (ki + 1);
    pre[0] = 0;
    for (size_t ti = 0; ti < ki; ++ti) {
      pre[ti + 1] = pre[ti] + cells[ti * kj + tj];
    }
  }
  cell_prefix_i = std::move(prefix_i);
  cell_prefix_j = std::move(prefix_j);
  // Column-major transposes: row tp holds the prefix up to pred bin tp for
  // every aggregation bin at once (contiguous), enabling whole-grid run
  // reductions. Built by accumulating each boundary row from the previous
  // one plus the matching cell column/row.
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
  cell_colpre_i = std::move(colpre_i);
  cell_colpre_j = std::move(colpre_j);
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
  explicit EdgeWalk(const VecView<double>& edges)
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
                              const Chi2CriticalCache& critical) {
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
  dim.edges = std::move(out.edges);
  dim.v_min = std::move(out.v_min);
  dim.v_max = std::move(out.v_max);
  dim.unique = std::move(out.unique);
  dim.counts = std::move(out.counts);
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
  EdgeWalk walk(h1.edges);
  for (uint32_t p : order) {
    bin[p] = static_cast<uint32_t>(walk.Advance(value[p]));
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
  PairRefiner(const ColumnRanks& ri, const ColumnRanks& rj, uint32_t* by_i,
              uint32_t* by_j, const RefineConfig& config,
              const Chi2CriticalCache& critical,
              std::vector<double>* new_edges_i,
              std::vector<double>* new_edges_j)
      : vi_(ri.value.data()),
        vj_(rj.value.data()),
        by_i_(by_i),
        by_j_(by_j),
        config_(config),
        critical_(critical),
        new_edges_i_(new_edges_i),
        new_edges_j_(new_edges_j) {}

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
  std::vector<double> values_;
  std::vector<uint32_t> upper_;
};

// Builds per-dimension metadata (counts, v±, unique, parent) for refined
// edges over the pair's rows — the positions of `mine` whose `other` value
// is non-null — in one walk of the presorted order, and records each row's
// refined bin in `row_bin` (indexed by position).
HistogramDim BuildDimMetadata(const ColumnRanks& mine,
                              const ColumnRanks& other,
                              std::vector<double> refined_edges,
                              const HistogramDim& h1,
                              std::vector<uint32_t>* row_bin) {
  HistogramDim dim;
  dim.edges = std::move(refined_edges);
  size_t k = dim.edges.size() - 1;
  std::vector<uint64_t> counts(k, 0), unique(k, 0);
  std::vector<double> v_min(k), v_max(k);
  std::vector<uint32_t> parent(k);
  for (size_t t = 0; t < k; ++t) {
    // Parent 1-d bin: the one containing this refined bin's lower edge
    // (refined edges are a superset of the 1-d edges).
    parent[t] = static_cast<uint32_t>(h1.BinIndex(dim.edges[t]));
    // Empty-bin defaults mirror RefineBin1D's convention.
    v_min[t] = dim.edges[t];
    v_max[t] = dim.edges[t + 1];
  }
  EdgeWalk walk(dim.edges);
  for (uint32_t p : mine.order) {
    if (other.IsNull(p)) continue;
    const double v = mine.value[p];
    const size_t t = walk.Advance(v);
    (*row_bin)[p] = static_cast<uint32_t>(t);
    if (counts[t] == 0) {
      v_min[t] = v;
      unique[t] = 1;
    } else if (v != v_max[t]) {
      ++unique[t];
    }
    v_max[t] = v;
    ++counts[t];
  }
  dim.counts = std::move(counts);
  dim.v_min = std::move(v_min);
  dim.v_max = std::move(v_max);
  dim.unique = std::move(unique);
  dim.parent = std::move(parent);
  return dim;
}

}  // namespace

PairHistogram BuildPairHistogram(const ColumnRanks& ri, const ColumnRanks& rj,
                                 uint32_t col_i, uint32_t col_j,
                                 const HistogramDim& h1_i,
                                 const HistogramDim& h1_j,
                                 const RefineConfig& config,
                                 const Chi2CriticalCache& critical) {
  PairHistogram ph;
  ph.col_i = col_i;
  ph.col_j = col_j;
  const size_t ki0 = h1_i.NumBins();
  const size_t kj0 = h1_j.NumBins();
  auto cell_of = [&](uint32_t p) {
    return static_cast<size_t>(ri.bin[p]) * kj0 + rj.bin[p];
  };

  // Initial cell assignment on the 1-d edges: two loads per row.
  std::vector<uint32_t> offset(ki0 * kj0 + 1, 0);
  for (uint32_t p : ri.order) {
    if (!rj.IsNull(p)) ++offset[cell_of(p) + 1];
  }
  for (size_t c = 0; c < ki0 * kj0; ++c) offset[c + 1] += offset[c];
  const size_t n = offset.back();

  // Group each cell's rows twice (counting sort in each column's order),
  // so every cell starts with both of its lists sorted.
  std::vector<uint32_t> by_i(n), by_j(n);
  {
    std::vector<uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (uint32_t p : ri.order) {
      if (!rj.IsNull(p)) by_i[cursor[cell_of(p)]++] = p;
    }
    std::copy(offset.begin(), offset.end() - 1, cursor.begin());
    for (uint32_t p : rj.order) {
      if (!ri.IsNull(p)) by_j[cursor[cell_of(p)]++] = p;
    }
  }

  // Refine each over-full cell; gather new edges per dimension.
  std::vector<double> new_edges_i, new_edges_j;
  PairRefiner refiner(ri, rj, by_i.data(), by_j.data(), config, critical,
                      &new_edges_i, &new_edges_j);
  for (size_t ti = 0; ti < ki0; ++ti) {
    for (size_t tj = 0; tj < kj0; ++tj) {
      size_t cell = ti * kj0 + tj;
      if (offset[cell + 1] - offset[cell] <= config.min_points) continue;
      refiner.Refine(offset[cell], offset[cell + 1], h1_i.edges[ti],
                     h1_i.edges[ti + 1], h1_j.edges[tj], h1_j.edges[tj + 1],
                     0);
    }
  }

  // Merge refined edges with the 1-d edges.
  auto merge_edges = [](std::span<const double> base,
                        std::vector<double>& extra) {
    std::vector<double> all(base.begin(), base.end());
    all.insert(all.end(), extra.begin(), extra.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return all;
  };

  // Refined bins per row (indexed by position), from the metadata walks.
  std::vector<uint32_t> bin_i(ri.value.size()), bin_j(rj.value.size());
  ph.dim_i = BuildDimMetadata(ri, rj, merge_edges(h1_i.edges, new_edges_i),
                              h1_i, &bin_i);
  ph.dim_j = BuildDimMetadata(rj, ri, merge_edges(h1_j.edges, new_edges_j),
                              h1_j, &bin_j);

  // Final cell counts on the refined grid.
  const size_t kj = ph.dim_j.NumBins();
  std::vector<uint64_t> cells(ph.dim_i.NumBins() * kj, 0);
  for (uint32_t p : by_i) {
    ++cells[static_cast<size_t>(bin_i[p]) * kj + bin_j[p]];
  }
  ph.cells = std::move(cells);
  return ph;
}

}  // namespace pairwisehist
