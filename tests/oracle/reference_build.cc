#include "tests/oracle/reference_build.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/parallel.h"
#include "common/rng.h"

namespace pairwisehist {
namespace oracle {

namespace {

// Midpoint snapped to the half-integer grid (see the comment at the use
// site). Falls back to the exact midpoint if snapping would leave the bin.
double SplitPoint(double lower, double upper) {
  double mid = (lower + upper) / 2.0;
  double snapped = std::floor(mid) + 0.5;
  if (snapped > lower && snapped < upper) return snapped;
  return mid;
}

// Collects the sorted values of one dimension for the given rows.
void SortedDimValues(const std::vector<double>& coords,
                     const std::vector<uint32_t>& rows,
                     std::vector<double>* scratch) {
  scratch->clear();
  scratch->reserve(rows.size());
  for (uint32_t r : rows) scratch->push_back(coords[r]);
  std::sort(scratch->begin(), scratch->end());
}

// RefineBin2D: recursively split the rectangle until both dimensions test
// uniform or the point count / width floor stops us. New interior edges are
// appended to `new_edges_i` / `new_edges_j` (they apply to the whole row or
// column of this pair's histogram, matching the paper's Fig. 5).
void RefineBin2D(const std::vector<double>& xi, const std::vector<double>& xj,
                 std::vector<uint32_t> rows, double lo_i, double hi_i,
                 double lo_j, double hi_j, int depth,
                 const RefineConfig& config, const Chi2CriticalCache& critical,
                 std::vector<double>* new_edges_i,
                 std::vector<double>* new_edges_j,
                 std::vector<double>* scratch) {
  if (rows.size() <= config.min_points || depth >= config.max_depth) return;

  SortedDimValues(xi, rows, scratch);
  uint64_t ui = CountUniqueSorted(scratch->data(),
                                  scratch->data() + scratch->size());
  UniformityResult ti = TestUniform(scratch->data(),
                                    scratch->data() + scratch->size(), lo_i,
                                    hi_i, ui, critical);
  SortedDimValues(xj, rows, scratch);
  uint64_t uj = CountUniqueSorted(scratch->data(),
                                  scratch->data() + scratch->size());
  UniformityResult tj = TestUniform(scratch->data(),
                                    scratch->data() + scratch->size(), lo_j,
                                    hi_j, uj, critical);

  bool can_split_i = !ti.uniform && ui > 1 && (hi_i - lo_i) > config.min_width;
  bool can_split_j = !tj.uniform && uj > 1 && (hi_j - lo_j) > config.min_width;
  if (!can_split_i && !can_split_j) return;

  // Split the least uniform dimension (largest statistic/critical ratio).
  bool split_i = can_split_i && (!can_split_j || ti.Ratio() >= tj.Ratio());

  const std::vector<double>& coords = split_i ? xi : xj;
  double z = split_i ? SplitPoint(lo_i, hi_i) : SplitPoint(lo_j, hi_j);
  (split_i ? new_edges_i : new_edges_j)->push_back(z);

  std::vector<uint32_t> left, right;
  left.reserve(rows.size() / 2);
  right.reserve(rows.size() / 2);
  for (uint32_t r : rows) {
    (coords[r] < z ? left : right).push_back(r);
  }
  rows.clear();
  rows.shrink_to_fit();
  if (split_i) {
    RefineBin2D(xi, xj, std::move(left), lo_i, z, lo_j, hi_j, depth + 1,
                config, critical, new_edges_i, new_edges_j, scratch);
    RefineBin2D(xi, xj, std::move(right), z, hi_i, lo_j, hi_j, depth + 1,
                config, critical, new_edges_i, new_edges_j, scratch);
  } else {
    RefineBin2D(xi, xj, std::move(left), lo_i, hi_i, lo_j, z, depth + 1,
                config, critical, new_edges_i, new_edges_j, scratch);
    RefineBin2D(xi, xj, std::move(right), lo_i, hi_i, z, hi_j, depth + 1,
                config, critical, new_edges_i, new_edges_j, scratch);
  }
}

// Builds per-dimension metadata (counts, v±, unique, parent) for refined
// edges over the paired values, kept in `arrays`.
HistogramDim BuildDimMetadata(const std::vector<double>& values,
                              std::vector<double> refined_edges,
                              const HistogramDim& h1, ArrayHolder* arrays) {
  HistogramDim dim;
  dim.edges = arrays->Keep(std::move(refined_edges));
  size_t k = dim.edges.size() - 1;
  std::vector<uint64_t> counts(k, 0), unique(k, 0);
  std::vector<double> v_min(k, 0), v_max(k, 0);
  std::vector<uint32_t> parent(k);
  for (size_t t = 0; t < k; ++t) {
    // Parent 1-d bin: the one containing this refined bin's lower edge
    // (refined edges are a superset of the 1-d edges).
    parent[t] = static_cast<uint32_t>(h1.BinIndex(dim.edges[t]));
    // Empty-bin defaults mirror RefineBin1D's convention.
    v_min[t] = dim.edges[t];
    v_max[t] = dim.edges[t + 1];
  }
  // Sort a copy of the values once; walk bins over it.
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  size_t cursor = 0;
  for (size_t t = 0; t < k && cursor < sorted.size(); ++t) {
    size_t begin = cursor;
    double upper = dim.edges[t + 1];
    bool last = (t + 1 == k);
    while (cursor < sorted.size() &&
           (last || sorted[cursor] < upper)) {
      ++cursor;
    }
    if (cursor > begin) {
      counts[t] = cursor - begin;
      v_min[t] = sorted[begin];
      v_max[t] = sorted[cursor - 1];
      unique[t] =
          CountUniqueSorted(sorted.data() + begin, sorted.data() + cursor);
    }
  }
  dim.counts = arrays->Keep(std::move(counts));
  dim.v_min = arrays->Keep(std::move(v_min));
  dim.v_max = arrays->Keep(std::move(v_max));
  dim.unique = arrays->Keep(std::move(unique));
  dim.parent = arrays->Keep(std::move(parent));
  return dim;
}

}  // namespace

PairHistogram ReferenceBuildPairHistogram(const std::vector<double>& xi,
                                          const std::vector<double>& xj,
                                          uint32_t col_i, uint32_t col_j,
                                          const HistogramDim& h1_i,
                                          const HistogramDim& h1_j,
                                          const RefineConfig& config,
                                          const Chi2CriticalCache& critical,
                                          ArrayHolder* arrays) {
  PairHistogram ph;
  ph.col_i = col_i;
  ph.col_j = col_j;
  const size_t n = xi.size();
  const size_t ki0 = h1_i.NumBins();
  const size_t kj0 = h1_j.NumBins();

  // Initial cell assignment on the 1-d edges.
  std::vector<uint32_t> cell_of(n);
  std::vector<uint32_t> cell_count(ki0 * kj0, 0);
  for (size_t r = 0; r < n; ++r) {
    size_t ti = h1_i.BinIndex(xi[r]);
    size_t tj = h1_j.BinIndex(xj[r]);
    uint32_t cell = static_cast<uint32_t>(ti * kj0 + tj);
    cell_of[r] = cell;
    ++cell_count[cell];
  }

  // Group row indices by cell (counting sort).
  std::vector<uint32_t> offset(ki0 * kj0 + 1, 0);
  for (size_t c = 0; c < cell_count.size(); ++c) {
    offset[c + 1] = offset[c] + cell_count[c];
  }
  std::vector<uint32_t> grouped(n);
  {
    std::vector<uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (size_t r = 0; r < n; ++r) {
      grouped[cursor[cell_of[r]]++] = static_cast<uint32_t>(r);
    }
  }

  // Refine each over-full cell; gather new edges per dimension.
  std::vector<double> new_edges_i, new_edges_j, scratch;
  for (size_t ti = 0; ti < ki0; ++ti) {
    for (size_t tj = 0; tj < kj0; ++tj) {
      size_t cell = ti * kj0 + tj;
      uint32_t cnt = cell_count[cell];
      if (cnt <= config.min_points) continue;
      std::vector<uint32_t> rows(grouped.begin() + offset[cell],
                                 grouped.begin() + offset[cell + 1]);
      RefineBin2D(xi, xj, std::move(rows), h1_i.edges[ti],
                  h1_i.edges[ti + 1], h1_j.edges[tj], h1_j.edges[tj + 1], 0,
                  config, critical, &new_edges_i, &new_edges_j, &scratch);
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
  std::vector<double> edges_i = merge_edges(h1_i.edges, new_edges_i);
  std::vector<double> edges_j = merge_edges(h1_j.edges, new_edges_j);

  ph.dim_i = BuildDimMetadata(xi, edges_i, h1_i, arrays);
  ph.dim_j = BuildDimMetadata(xj, edges_j, h1_j, arrays);

  // Final cell counts on the refined grid.
  size_t ki = ph.dim_i.NumBins();
  size_t kj = ph.dim_j.NumBins();
  std::vector<uint64_t> cells(ki * kj, 0);
  for (size_t r = 0; r < n; ++r) {
    size_t ti = ph.dim_i.BinIndex(xi[r]);
    size_t tj = ph.dim_j.BinIndex(xj[r]);
    ++cells[ti * kj + tj];
  }
  ph.BuildCellPrefix(cells, arrays);
  return ph;
}

namespace {

// Deterministically samples `ns` of `n` row indices (sorted).
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
  all.resize(ns);
  std::sort(all.begin(), all.end());
  return all;
}

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

}  // namespace

StatusOr<PairwiseHist> ReferenceBuild::Build(
    const PreprocessedTable& pre, const CompressedTable* gd,
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
  out.critical_ = std::make_shared<Chi2CriticalCache>(config.alpha);

  RefineConfig refine;
  refine.min_points = out.min_points_;
  refine.alpha = config.alpha;

  std::vector<uint32_t> rows = SampleRows(n, ns, config.seed);

  // ---- 1-d histograms ----------------------------------------------------
  // Per column: sorted non-null sampled codes.
  std::vector<std::vector<double>> col_values(d);
  ArrayHolder arrays;  // every array until FinishExecIndex seals them
  out.hist1d_.resize(d);
  const size_t max_edges = static_cast<size_t>(
      std::ceil(static_cast<double>(ns) / out.min_points_));
  for (size_t c = 0; c < d; ++c) {
    auto& vals = col_values[c];
    vals.reserve(rows.size());
    for (uint32_t r : rows) {
      uint64_t code = pre.codes[c][r];
      if (code != kMissingCode) vals.push_back(static_cast<double>(code));
    }
    std::sort(vals.begin(), vals.end());
    if (vals.empty()) {
      // All-null column: degenerate single empty bin.
      out.hist1d_[c] = BuildHistogram1D({}, {1.0, 2.0}, refine,
                                        *out.critical_, &arrays);
      continue;
    }
    std::vector<uint64_t> bases;
    const std::vector<uint64_t>* bases_ptr = nullptr;
    if (gd != nullptr && config.use_bases_for_edges) {
      bases = gd->ColumnBaseValues(c);
      bases_ptr = &bases;
    }
    std::vector<double> edges =
        InitialEdges(bases_ptr, max_edges, vals.front(), vals.back());
    out.hist1d_[c] =
        BuildHistogram1D(vals, edges, refine, *out.critical_, &arrays);
  }

  // ---- 2-d histograms ----------------------------------------------------
  // The d(d-1)/2 pair builds are independent and individually deterministic,
  // so they fan out over the shared work-counter pool, each writing its
  // fixed PairSlot — the result is identical for any thread count or
  // scheduling. Each pair keeps its arrays in its own slot's holder.
  std::vector<ArrayHolder> pair_arrays;
  if (d > 1) {
    const size_t npairs = d * (d - 1) / 2;
    out.pairs_.resize(npairs);
    pair_arrays.resize(npairs);
    std::vector<std::pair<uint32_t, uint32_t>> work;
    work.reserve(npairs);
    for (size_t i = 1; i < d; ++i) {
      for (size_t j = 0; j < i; ++j) {
        work.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
      }
    }

    ParallelFor(work.size(), config.build_threads, [&](size_t w, unsigned) {
      const uint32_t i = work[w].first;
      const uint32_t j = work[w].second;
      // One exact-size gather allocation per pair, released when the pair
      // finishes — negligible next to the histogram build itself, and
      // nothing is retained after Build returns.
      std::vector<double> xi, xj;
      xi.reserve(rows.size());
      xj.reserve(rows.size());
      for (uint32_t r : rows) {
        uint64_t ci = pre.codes[i][r];
        uint64_t cj = pre.codes[j][r];
        if (ci == kMissingCode || cj == kMissingCode) continue;
        xi.push_back(static_cast<double>(ci));
        xj.push_back(static_cast<double>(cj));
      }
      const size_t slot = PairwiseHist::PairSlot(i, j);
      out.pairs_[slot] = ReferenceBuildPairHistogram(
          xi, xj, i, j, out.hist1d_[i], out.hist1d_[j], refine,
          *out.critical_, &pair_arrays[slot]);
    });
  }
  out.FinishExecIndex();
  return out;
}

namespace {

// Bit-by-bit MSB-first packing, growing the store one byte at a time.
void PackBits(std::vector<uint8_t>* store, size_t bit_offset, uint64_t value,
              int nbits) {
  for (int i = nbits - 1; i >= 0; --i) {
    size_t byte_index = bit_offset >> 3;
    int bit_in_byte = 7 - static_cast<int>(bit_offset & 7);
    if (byte_index >= store->size()) store->resize(byte_index + 1, 0);
    if ((value >> i) & 1) {
      (*store)[byte_index] |= static_cast<uint8_t>(1u << bit_in_byte);
    } else {
      (*store)[byte_index] &= static_cast<uint8_t>(~(1u << bit_in_byte));
    }
    ++bit_offset;
  }
}

uint64_t UnpackBits(const std::vector<uint8_t>& store, size_t bit_offset,
                    int nbits) {
  uint64_t value = 0;
  for (int i = 0; i < nbits; ++i) {
    size_t byte_index = bit_offset >> 3;
    int bit_in_byte = 7 - static_cast<int>(bit_offset & 7);
    value = (value << 1) | ((store[byte_index] >> bit_in_byte) & 1);
    ++bit_offset;
  }
  return value;
}

int BitsFor(uint64_t n) {
  int bits = 1;
  while ((uint64_t{1} << bits) < n && bits < 63) ++bits;
  return bits;
}

}  // namespace

GdStores ReferenceGdStores(const PreprocessedTable& pre,
                           const std::vector<int>& deviation_bits) {
  GdStores out;
  const size_t d = pre.NumColumns();
  int dev_total = 0;
  for (int dev : deviation_bits) dev_total += dev;
  int id_bits = 8;
  std::map<std::vector<uint64_t>, uint32_t> ids;
  std::vector<uint64_t> base(d);
  for (size_t r = 0; r < pre.NumRows(); ++r) {
    for (size_t c = 0; c < d; ++c) {
      base[c] = pre.codes[c][r] >> deviation_bits[c];
    }
    // Base IDs are handed out in order of first appearance.
    auto [it, fresh] = ids.emplace(base, static_cast<uint32_t>(ids.size()));
    (void)fresh;
    const uint32_t id = it->second;
    int needed = BitsFor(static_cast<uint64_t>(id) + 1);
    if (needed > id_bits) {
      const int new_bits = needed + 2;
      std::vector<uint8_t> repacked((r * new_bits + 7) / 8, 0);
      for (size_t q = 0; q < r; ++q) {
        PackBits(&repacked, q * new_bits,
                 UnpackBits(out.base_ids, q * id_bits, id_bits), new_bits);
      }
      out.base_ids = std::move(repacked);
      id_bits = new_bits;
    }
    PackBits(&out.base_ids, r * id_bits, id, id_bits);
    size_t off = r * dev_total;
    for (size_t c = 0; c < d; ++c) {
      const int dev = deviation_bits[c];
      if (dev == 0) continue;
      PackBits(&out.deviations, off,
               pre.codes[c][r] & ((uint64_t{1} << dev) - 1), dev);
      off += dev;
    }
  }
  return out;
}

}  // namespace oracle
}  // namespace pairwisehist
