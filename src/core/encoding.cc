// Compact storage encoding for PairwiseHist (paper Section 4.3, Fig. 6).
//
// Layout: params → transform catalog → 1-d histograms → 2-d histograms →
// bin counts. Re-derivable quantities (midpoints, weighted-centre bounds,
// parent mappings, 2-d marginal counts) are NOT stored. Every histogram
// edge lies on the half-integer grid of the code domain (see histogram.cc),
// so edges are stored as varint deltas of 2x the edge value. Cell-count
// matrices are stored dense (bit-packed at ℓh bits per count) or sparse
// (Golomb-coded deltas between non-zero flat indices + ℓh-bit counts),
// whichever is smaller — the I(ij) flag of Fig. 6.
#include <algorithm>
#include <cmath>
#include <span>

#include "common/bitio.h"
#include "common/golomb.h"
#include "common/serialize.h"
#include "core/pairwise_hist.h"
#include "core/transform_codec.h"

namespace pairwisehist {

namespace {

constexpr uint32_t kMagic = 0x50574831;  // "PWH1"

// Bits per count: ℓh = ceil(log2(1 + max_count)) (Eq. 13).
int CountBits(std::span<const uint64_t> counts) {
  uint64_t mx = 0;
  for (uint64_t c : counts) mx = std::max(mx, c);
  int bits = 1;
  while ((uint64_t{1} << bits) <= mx && bits < 63) ++bits;
  return bits;
}

void WriteEdges(ByteWriter* w, std::span<const double> edges) {
  w->WriteVarint(edges.size());
  int64_t prev = 0;
  for (double e : edges) {
    int64_t e2 = static_cast<int64_t>(std::llround(e * 2.0));
    w->WriteSignedVarint(e2 - prev);
    prev = e2;
  }
}

StatusOr<std::vector<double>> ReadEdges(ByteReader* r) {
  PH_ASSIGN_OR_RETURN(uint64_t n, r->ReadVarint());
  // Every edge costs at least one byte, so a length field beyond the
  // remaining input is corruption — reject before allocating.
  if (n < 2 || n > r->remaining() + 2) {
    return Status::DataLoss("edge count out of range");
  }
  std::vector<double> edges(n);
  int64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    PH_ASSIGN_OR_RETURN(int64_t delta, r->ReadSignedVarint());
    if (i > 0 && delta <= 0) {
      return Status::DataLoss("non-ascending histogram edges");
    }
    prev += delta;
    edges[i] = static_cast<double>(prev) / 2.0;
  }
  return edges;
}

// Per-bin metadata (v−, v+, u) for one dimension. Values are stored as
// 2x-scaled deltas from the bin's lower edge (non-negative, small).
void WriteDimMeta(ByteWriter* w, const HistogramDim& dim) {
  for (size_t t = 0; t < dim.NumBins(); ++t) {
    int64_t e2 = static_cast<int64_t>(std::llround(dim.edges[t] * 2.0));
    int64_t lo2 = static_cast<int64_t>(std::llround(dim.v_min[t] * 2.0));
    int64_t hi2 = static_cast<int64_t>(std::llround(dim.v_max[t] * 2.0));
    w->WriteSignedVarint(lo2 - e2);
    w->WriteVarint(static_cast<uint64_t>(hi2 - lo2));
    w->WriteVarint(dim.unique[t]);
  }
}

Status ReadDimMeta(ByteReader* r, HistogramDim* dim) {
  size_t k = dim->edges.size() - 1;
  std::vector<double> v_min(k), v_max(k);
  std::vector<uint64_t> unique(k);
  for (size_t t = 0; t < k; ++t) {
    int64_t e2 = static_cast<int64_t>(std::llround(dim->edges[t] * 2.0));
    PH_ASSIGN_OR_RETURN(int64_t lo_delta, r->ReadSignedVarint());
    PH_ASSIGN_OR_RETURN(uint64_t span, r->ReadVarint());
    PH_ASSIGN_OR_RETURN(uint64_t u, r->ReadVarint());
    int64_t lo2 = e2 + lo_delta;
    v_min[t] = static_cast<double>(lo2) / 2.0;
    v_max[t] = static_cast<double>(lo2 + static_cast<int64_t>(span)) / 2.0;
    unique[t] = u;
  }
  dim->v_min = std::move(v_min);
  dim->v_max = std::move(v_max);
  dim->unique = std::move(unique);
  return Status::OK();
}

// Cell-count matrix: dense (mode 0) or sparse Golomb (mode 1).
void WriteCells(ByteWriter* w, std::span<const uint64_t> cells) {
  int lh = CountBits(cells);
  size_t nonzero = 0;
  for (uint64_t c : cells) nonzero += (c != 0);

  // Dense cost vs sparse cost (in bits).
  uint64_t dense_bits = cells.size() * static_cast<uint64_t>(lh);
  // Sparse: estimate with the mean index delta.
  uint64_t m = GolombOptimalM(
      nonzero == 0 ? 1.0
                   : static_cast<double>(cells.size()) / nonzero);
  uint64_t sparse_bits = 0;
  {
    uint64_t prev = 0;
    bool first = true;
    for (size_t idx = 0; idx < cells.size(); ++idx) {
      if (cells[idx] == 0) continue;
      uint64_t delta = first ? idx : idx - prev - 1;
      first = false;
      prev = idx;
      sparse_bits += GolombCodeLengthBits(delta, m) + lh;
    }
  }

  w->WriteU8(static_cast<uint8_t>(lh));
  if (sparse_bits < dense_bits) {
    w->WriteU8(1);  // sparse
    w->WriteVarint(nonzero);
    w->WriteVarint(m);
    BitWriter bits;
    uint64_t prev = 0;
    bool first = true;
    for (size_t idx = 0; idx < cells.size(); ++idx) {
      if (cells[idx] == 0) continue;
      uint64_t delta = first ? idx : idx - prev - 1;
      first = false;
      prev = idx;
      GolombEncode(delta, m, &bits);
      bits.WriteBits(cells[idx], lh);
    }
    w->WriteBytes(bits.Finish());
  } else {
    w->WriteU8(0);  // dense
    BitWriter bits;
    for (uint64_t c : cells) bits.WriteBits(c, lh);
    w->WriteBytes(bits.Finish());
  }
}

StatusOr<std::vector<uint64_t>> ReadCells(ByteReader* r, size_t n) {
  // A cell matrix larger than the whole input at one bit per count is
  // corruption (caller derives n from edge counts, which a flipped bit
  // can inflate).
  if (n > (r->remaining() + 16) * 8 * 64) {
    return Status::DataLoss("cell matrix larger than input");
  }
  std::vector<uint64_t> cells(n, 0);
  PH_ASSIGN_OR_RETURN(uint8_t lh, r->ReadU8());
  if (lh == 0 || lh > 63) return Status::DataLoss("bad count width");
  PH_ASSIGN_OR_RETURN(uint8_t mode, r->ReadU8());
  if (mode == 1) {
    PH_ASSIGN_OR_RETURN(uint64_t nonzero, r->ReadVarint());
    if (nonzero > n) return Status::DataLoss("non-zero count exceeds cells");
    PH_ASSIGN_OR_RETURN(uint64_t m, r->ReadVarint());
    PH_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, r->ReadBytes());
    BitReader bits(blob);
    uint64_t idx = 0;
    bool first = true;
    for (uint64_t i = 0; i < nonzero; ++i) {
      PH_ASSIGN_OR_RETURN(uint64_t delta, GolombDecode(m, &bits));
      idx = first ? delta : idx + delta + 1;
      first = false;
      PH_ASSIGN_OR_RETURN(uint64_t count, bits.ReadBits(lh));
      if (idx >= n) return Status::DataLoss("sparse cell index overflow");
      cells[idx] = count;
    }
  } else if (mode == 0) {
    PH_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, r->ReadBytes());
    BitReader bits(blob);
    for (size_t i = 0; i < n; ++i) {
      PH_ASSIGN_OR_RETURN(uint64_t count, bits.ReadBits(lh));
      cells[i] = count;
    }
  } else {
    return Status::DataLoss("unknown cell-count mode");
  }
  return cells;
}

}  // namespace

void WriteTransform(ByteWriter* w, const ColumnTransform& tr) {
  w->WriteString(tr.name);
  w->WriteU8(static_cast<uint8_t>(tr.type));
  w->WriteU8(static_cast<uint8_t>(tr.decimals));
  w->WriteSignedVarint(tr.min_scaled);
  w->WriteVarint(tr.max_code);
  w->WriteU8(static_cast<uint8_t>(tr.bit_width));
  w->WriteU8(tr.has_nulls ? 1 : 0);
  w->WriteVarint(tr.rank_to_code.size());
  for (int64_t code : tr.rank_to_code) w->WriteSignedVarint(code);
  w->WriteVarint(tr.dictionary.size());
  for (const auto& s : tr.dictionary) w->WriteString(s);
}

StatusOr<ColumnTransform> ReadTransform(ByteReader* r) {
  ColumnTransform tr;
  PH_ASSIGN_OR_RETURN(tr.name, r->ReadString());
  PH_ASSIGN_OR_RETURN(uint8_t type, r->ReadU8());
  tr.type = static_cast<DataType>(type);
  PH_ASSIGN_OR_RETURN(uint8_t dec, r->ReadU8());
  tr.decimals = dec;
  tr.scale = std::pow(10.0, tr.decimals);
  PH_ASSIGN_OR_RETURN(tr.min_scaled, r->ReadSignedVarint());
  PH_ASSIGN_OR_RETURN(tr.max_code, r->ReadVarint());
  PH_ASSIGN_OR_RETURN(uint8_t bw, r->ReadU8());
  tr.bit_width = bw;
  PH_ASSIGN_OR_RETURN(uint8_t hn, r->ReadU8());
  tr.has_nulls = hn != 0;
  PH_ASSIGN_OR_RETURN(uint64_t nranks, r->ReadVarint());
  if (nranks > r->remaining()) {
    return Status::DataLoss("rank table larger than input");
  }
  tr.rank_to_code.resize(nranks);
  int64_t max_code = -1;
  for (uint64_t i = 0; i < nranks; ++i) {
    PH_ASSIGN_OR_RETURN(tr.rank_to_code[i], r->ReadSignedVarint());
    if (tr.rank_to_code[i] < 0 ||
        tr.rank_to_code[i] > static_cast<int64_t>(nranks) * 2 + 64) {
      return Status::DataLoss("rank table entry out of range");
    }
    max_code = std::max(max_code, tr.rank_to_code[i]);
  }
  if (nranks > 0) {
    tr.code_to_rank.assign(static_cast<size_t>(max_code) + 1, 0);
    for (uint64_t rank = 0; rank < nranks; ++rank) {
      tr.code_to_rank[static_cast<size_t>(tr.rank_to_code[rank])] =
          static_cast<int64_t>(rank);
    }
  }
  PH_ASSIGN_OR_RETURN(uint64_t ndict, r->ReadVarint());
  if (ndict > r->remaining()) {
    return Status::DataLoss("dictionary larger than input");
  }
  tr.dictionary.resize(ndict);
  for (uint64_t i = 0; i < ndict; ++i) {
    PH_ASSIGN_OR_RETURN(tr.dictionary[i], r->ReadString());
  }
  return tr;
}

namespace {

// Recomputes the parent mapping and marginal counts of a pair dimension
// from its edges, the matching 1-d histogram and the cell matrix.
void DerivePairDim(HistogramDim* dim, const HistogramDim& h1,
                   std::span<const uint64_t> cells, size_t k_other,
                   bool is_rows) {
  size_t k = dim->edges.size() - 1;  // counts not populated yet
  std::vector<uint32_t> parent(k);
  for (size_t t = 0; t < k; ++t) {
    parent[t] = static_cast<uint32_t>(h1.BinIndex(dim->edges[t]));
  }
  std::vector<uint64_t> counts(k, 0);
  for (size_t a = 0; a < k; ++a) {
    uint64_t sum = 0;
    for (size_t b = 0; b < k_other; ++b) {
      sum += is_rows ? cells[a * k_other + b] : cells[b * k + a];
    }
    counts[a] = sum;
  }
  dim->parent = std::move(parent);
  dim->counts = std::move(counts);
}

}  // namespace

// Friend of PairwiseHist: reads/writes the private representation.
class SynopsisCodec {
 public:
  static std::vector<uint8_t> Encode(const PairwiseHist& ph) {
    ByteWriter w;
    w.WriteU32(kMagic);
    w.WriteU64(ph.total_rows_);
    w.WriteU64(ph.sample_rows_);
    w.WriteU64(ph.min_points_);
    w.WriteF64(ph.alpha_);
    w.WriteU16(static_cast<uint16_t>(ph.transforms_.size()));

    for (const auto& tr : ph.transforms_) WriteTransform(&w, tr);

    // 1-d histograms: edges, metadata, counts.
    for (const auto& h : ph.hist1d_) {
      WriteEdges(&w, h.edges);
      WriteDimMeta(&w, h);
      WriteCells(&w, h.counts);
    }

    // 2-d histograms: refined edges + metadata per dim, then the
    // row-major cells, read back out of the cell prefixes.
    std::vector<uint64_t> cells;
    for (const auto& p : ph.pairs_) {
      WriteEdges(&w, p.dim_i.edges);
      WriteDimMeta(&w, p.dim_i);
      WriteEdges(&w, p.dim_j.edges);
      WriteDimMeta(&w, p.dim_j);
      const size_t ki = p.dim_i.NumBins();
      const size_t kj = p.dim_j.NumBins();
      cells.resize(ki * kj);
      for (size_t ti = 0; ti < ki; ++ti) {
        for (size_t tj = 0; tj < kj; ++tj) {
          cells[ti * kj + tj] = p.CellCount(ti, tj);
        }
      }
      WriteCells(&w, cells);
    }
    return w.Finish();
  }

  static StatusOr<PairwiseHist> Decode(std::span<const uint8_t> data) {
    ByteReader r(data);
    PH_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
    if (magic != kMagic) {
      return Status::DataLoss("PairwiseHist: bad magic");
    }
    PairwiseHist ph;
    PH_ASSIGN_OR_RETURN(ph.total_rows_, r.ReadU64());
    PH_ASSIGN_OR_RETURN(ph.sample_rows_, r.ReadU64());
    PH_ASSIGN_OR_RETURN(ph.min_points_, r.ReadU64());
    PH_ASSIGN_OR_RETURN(ph.alpha_, r.ReadF64());
    PH_ASSIGN_OR_RETURN(uint16_t d, r.ReadU16());
    ph.critical_ = SharedChi2CriticalCache(ph.alpha_);

    ph.transforms_.reserve(d);
    for (uint16_t c = 0; c < d; ++c) {
      PH_ASSIGN_OR_RETURN(ColumnTransform tr, ReadTransform(&r));
      ph.transforms_.push_back(std::move(tr));
    }

    ph.hist1d_.resize(d);
    for (uint16_t c = 0; c < d; ++c) {
      HistogramDim& h = ph.hist1d_[c];
      PH_ASSIGN_OR_RETURN(h.edges, ReadEdges(&r));
      if (h.edges.size() < 2) {
        return Status::DataLoss("PairwiseHist: 1-d histogram too small");
      }
      PH_RETURN_IF_ERROR(ReadDimMeta(&r, &h));
      PH_ASSIGN_OR_RETURN(h.counts, ReadCells(&r, h.edges.size() - 1));
    }

    size_t npairs = static_cast<size_t>(d) * (d - 1) / 2;
    ph.pairs_.resize(npairs);
    size_t slot = 0;
    for (size_t i = 1; i < d; ++i) {
      for (size_t j = 0; j < i; ++j, ++slot) {
        PairHistogram& p = ph.pairs_[slot];
        p.col_i = static_cast<uint32_t>(i);
        p.col_j = static_cast<uint32_t>(j);
        PH_ASSIGN_OR_RETURN(p.dim_i.edges, ReadEdges(&r));
        PH_RETURN_IF_ERROR(ReadDimMeta(&r, &p.dim_i));
        PH_ASSIGN_OR_RETURN(p.dim_j.edges, ReadEdges(&r));
        PH_RETURN_IF_ERROR(ReadDimMeta(&r, &p.dim_j));
        size_t ki = p.dim_i.edges.size() - 1;
        size_t kj = p.dim_j.edges.size() - 1;
        PH_ASSIGN_OR_RETURN(std::vector<uint64_t> cells,
                            ReadCells(&r, ki * kj));
        DerivePairDim(&p.dim_i, ph.hist1d_[i], cells, kj, /*is_rows=*/true);
        DerivePairDim(&p.dim_j, ph.hist1d_[j], cells, ki, /*is_rows=*/false);
        p.BuildCellPrefix(cells);
      }
    }
    // The remaining execution indexes (count prefixes, centre caches,
    // non-null fractions) are derived, not stored.
    ph.FinishExecIndex();
    return ph;
  }
};

std::vector<uint8_t> PairwiseHist::Serialize() const {
  return SynopsisCodec::Encode(*this);
}

StatusOr<PairwiseHist> PairwiseHist::Deserialize(
    std::span<const uint8_t> data) {
  return SynopsisCodec::Decode(data);
}

size_t PairwiseHist::StorageBytes() const { return Serialize().size(); }

}  // namespace pairwisehist
