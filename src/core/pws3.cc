// PWS3 memory-mappable synopsis container — writer, validator and the
// zero-copy / heap-copy readers. See pws3.h for the layout.

#include "core/pws3.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/serialize.h"
#include "core/integrity.h"
#include "core/transform_codec.h"
#include "storage/wal.h"  // Crc32

namespace pairwisehist {

static_assert(Pws3Codec::kCrcBlockSize == Pws3Integrity::kBlockSize,
              "codec and verifier must agree on the CRC block size");

namespace {

// ---------------------------------------------------------------------------
// Writer

// Accumulates the aligned array region (starting right after the header)
// and the metadata stream referencing into it.
class ImageBuilder {
 public:
  ImageBuilder() { body_.resize(Pws3Codec::kHeaderSize, 0); }

  // Appends one array payload at the next 64-byte-aligned offset and
  // writes its {offset, count} reference into the metadata stream. Empty
  // arrays write {0, 0} and occupy no payload bytes.
  template <typename T>
  void Arr(const VecView<T>& v) {
    if (v.empty()) {
      meta_.WriteVarint(0);
      meta_.WriteVarint(0);
      return;
    }
    size_t off = Align(body_.size());
    body_.resize(off, 0);
    const uint8_t* p = reinterpret_cast<const uint8_t*>(v.data());
    body_.insert(body_.end(), p, p + v.size() * sizeof(T));
    meta_.WriteVarint(off);
    meta_.WriteVarint(v.size());
  }

  void Dim(const HistogramDim& h) {
    Arr(h.edges);
    Arr(h.counts);
    Arr(h.v_min);
    Arr(h.v_max);
    Arr(h.unique);
    Arr(h.parent);
    Arr(h.count_prefix);
    Arr(h.centre_mid);
    Arr(h.centre_lo);
    Arr(h.centre_hi);
  }

  ByteWriter* meta() { return &meta_; }

  std::vector<uint8_t> Finish(uint32_t num_segments) {
    // Close the data region on an aligned boundary so the crc/meta
    // offsets are stable regardless of the last array's length.
    size_t data_end = Align(body_.size());
    body_.resize(data_end, 0);

    // Per-block payload CRCs over [kHeaderSize, data_end); the final
    // block may be short.
    const size_t data_bytes = data_end - Pws3Codec::kHeaderSize;
    const size_t nblocks =
        (data_bytes + Pws3Codec::kCrcBlockSize - 1) / Pws3Codec::kCrcBlockSize;
    std::vector<uint32_t> block_crcs(nblocks);
    for (size_t k = 0; k < nblocks; ++k) {
      const size_t begin = Pws3Codec::kHeaderSize + k * Pws3Codec::kCrcBlockSize;
      const size_t end =
          std::min(data_end, begin + Pws3Codec::kCrcBlockSize);
      block_crcs[k] = Crc32(body_.data() + begin, end - begin);
    }
    const uint8_t* table =
        reinterpret_cast<const uint8_t*>(block_crcs.data());
    const size_t table_bytes = nblocks * sizeof(uint32_t);
    const uint32_t table_crc = Crc32(table, table_bytes);

    // Corruption generator for tests: with `pws3.block_corrupt` armed as
    // error, flip one payload byte AFTER the CRCs were computed — the
    // image then carries exactly the at-rest rot the verifiers must
    // catch. (crash mode kills the writer here, before any file I/O.)
    if (!failpoint::Fire("pws3.block_corrupt").status.ok() &&
        data_bytes > 0) {
      body_[Pws3Codec::kHeaderSize + data_bytes / 2] ^= 0x01;
    }

    std::vector<uint8_t> meta = meta_.Finish();
    uint32_t crc = Crc32(meta.data(), meta.size());

    std::vector<uint8_t> out = std::move(body_);
    out.insert(out.end(), table, table + table_bytes);
    out.insert(out.end(), meta.begin(), meta.end());

    auto put32 = [&out](size_t at, uint32_t v) {
      std::memcpy(out.data() + at, &v, 4);
    };
    auto put64 = [&out](size_t at, uint64_t v) {
      std::memcpy(out.data() + at, &v, 8);
    };
    put32(0, Pws3Codec::kMagic);
    put32(4, Pws3Codec::kVersion);
    put64(8, out.size());              // file_size
    put64(16, data_end);               // data_end
    put64(24, meta.size());            // meta_size
    put32(32, crc);                    // meta_crc32
    put32(36, num_segments);
    put64(40, data_end);               // crc_off (table follows the data)
    put32(48, static_cast<uint32_t>(nblocks));  // crc_count
    put32(52, table_crc);              // crc_table_crc32
    return out;
  }

 private:
  static size_t Align(size_t n) {
    return (n + Pws3Codec::kAlign - 1) & ~(Pws3Codec::kAlign - 1);
  }

  std::vector<uint8_t> body_;  // header placeholder + aligned arrays
  ByteWriter meta_;
};

// ---------------------------------------------------------------------------
// Reader

Status Bad(const std::string& what) {
  return Status::DataLoss("PWS3: " + what);
}

// Context shared by every array load of one Decode call. seg_lo/seg_hi
// accumulate the data-region byte range the current segment's arrays
// occupy (contiguous by construction: Encode lays segments out in
// order); Decode resets them per segment and snapshots the result as
// that segment's integrity span.
struct LoadCtx {
  std::span<const uint8_t> bytes;
  uint64_t data_end = 0;
  bool zero_copy = false;
  uint64_t seg_lo = 0;
  uint64_t seg_hi = 0;
};

// Reads one {offset, count} reference from the metadata stream, validates
// it against the data region, and binds (zero-copy) or copies (heap) the
// payload into `out`. `expect` is the required element count; pass
// kAnyCount to accept any (the caller validates afterwards).
constexpr size_t kAnyCount = static_cast<size_t>(-1);

template <typename T>
Status LoadArr(ByteReader* r, LoadCtx* ctx, size_t expect,
               VecView<T>* out, const char* name, bool optional = false) {
  uint64_t off = 0, count = 0;
  if (!r->ReadVarintFast(&off) || !r->ReadVarintFast(&count)) {
    return Bad("truncated array reference");
  }
  if (expect != kAnyCount && count != expect && !(optional && count == 0)) {
    return Bad(std::string(name) + " count " + std::to_string(count) +
               " != expected " + std::to_string(expect));
  }
  if (count == 0) {
    *out = VecView<T>();
    return Status::OK();
  }
  if (off < Pws3Codec::kHeaderSize || off % Pws3Codec::kAlign != 0 ||
      off > ctx->data_end) {
    return Bad("array offset out of range");
  }
  if (count > (ctx->data_end - off) / sizeof(T)) {
    return Bad("array extends past data region");
  }
  ctx->seg_lo = std::min(ctx->seg_lo, off);
  ctx->seg_hi = std::max(ctx->seg_hi, off + count * sizeof(T));
  const uint8_t* src = ctx->bytes.data() + off;
  if (ctx->zero_copy) {
    // The mapping is page-aligned and offsets are 64-byte-aligned, so the
    // typed pointer is aligned for any element type used here.
    out->BindView(reinterpret_cast<const T*>(src), count);
  } else {
    // memcpy, not a typed read: a heap blob need not be aligned for T.
    std::vector<T> v(count);
    std::memcpy(v.data(), src, count * sizeof(T));
    *out = std::move(v);
  }
  return Status::OK();
}

// Loads one HistogramDim and validates the internal size invariants.
// `parent_bins`: 0 for a 1-d histogram (no parent mapping), else the
// number of bins the parent indices must stay below.
Status LoadDim(ByteReader* r, LoadCtx* ctx, size_t parent_bins,
               HistogramDim* h) {
  PH_RETURN_IF_ERROR(LoadArr(r, ctx, kAnyCount, &h->edges, "edges"));
  if (h->edges.size() < 2) return Bad("histogram has fewer than 2 edges");
  const size_t k = h->edges.size() - 1;
  PH_RETURN_IF_ERROR(LoadArr(r, ctx, k, &h->counts, "counts"));
  PH_RETURN_IF_ERROR(LoadArr(r, ctx, k, &h->v_min, "v_min"));
  PH_RETURN_IF_ERROR(LoadArr(r, ctx, k, &h->v_max, "v_max"));
  PH_RETURN_IF_ERROR(LoadArr(r, ctx, k, &h->unique, "unique"));
  PH_RETURN_IF_ERROR(
      LoadArr(r, ctx, parent_bins == 0 ? 0 : k, &h->parent, "parent"));
  // The execution-index arrays are absent where FinishExecIndex does not
  // fill them (pair dims carry no count_prefix): empty or exact-size.
  PH_RETURN_IF_ERROR(LoadArr(r, ctx, k + 1, &h->count_prefix,
                             "count_prefix", /*optional=*/true));
  PH_RETURN_IF_ERROR(LoadArr(r, ctx, k, &h->centre_mid, "centre_mid",
                             /*optional=*/true));
  PH_RETURN_IF_ERROR(LoadArr(r, ctx, k, &h->centre_lo, "centre_lo",
                             /*optional=*/true));
  PH_RETURN_IF_ERROR(LoadArr(r, ctx, k, &h->centre_hi, "centre_hi",
                             /*optional=*/true));
  for (size_t t = 0; t < h->parent.size(); ++t) {
    if (h->parent[t] >= parent_bins) return Bad("parent bin out of range");
  }
  return Status::OK();
}

struct Header {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t file_size = 0;
  uint64_t data_end = 0;
  uint64_t meta_size = 0;
  uint32_t meta_crc = 0;
  uint32_t num_segments = 0;
  // v2 and later (zero on v1 files):
  uint64_t crc_off = 0;
  uint32_t crc_count = 0;
  uint32_t crc_table_crc = 0;
  // Where the metadata stream begins: data_end on v1, after the CRC
  // table from v2 on.
  uint64_t meta_off = 0;
};

Status ReadHeader(std::span<const uint8_t> bytes, Header* h) {
  if (bytes.size() < Pws3Codec::kHeaderSize) {
    return Bad("file smaller than header");
  }
  ByteReader r(bytes.data(), Pws3Codec::kHeaderSize);
  PH_ASSIGN_OR_RETURN(h->magic, r.ReadU32());
  PH_ASSIGN_OR_RETURN(h->version, r.ReadU32());
  PH_ASSIGN_OR_RETURN(h->file_size, r.ReadU64());
  PH_ASSIGN_OR_RETURN(h->data_end, r.ReadU64());
  PH_ASSIGN_OR_RETURN(h->meta_size, r.ReadU64());
  PH_ASSIGN_OR_RETURN(h->meta_crc, r.ReadU32());
  PH_ASSIGN_OR_RETURN(h->num_segments, r.ReadU32());
  if (h->magic != Pws3Codec::kMagic) return Bad("bad magic");
  if (h->version == 0 || h->version > Pws3Codec::kVersion) {
    return Bad("unsupported version " + std::to_string(h->version));
  }
  if (h->file_size != bytes.size()) {
    return Bad("file size mismatch (truncated or torn write)");
  }
  if (h->data_end < Pws3Codec::kHeaderSize || h->data_end > bytes.size()) {
    return Bad("section directory out of range");
  }
  if (h->version >= 2) {
    PH_ASSIGN_OR_RETURN(h->crc_off, r.ReadU64());
    PH_ASSIGN_OR_RETURN(h->crc_count, r.ReadU32());
    PH_ASSIGN_OR_RETURN(h->crc_table_crc, r.ReadU32());
    PH_ASSIGN_OR_RETURN(uint32_t rsvd_lo, r.ReadU32());
    PH_ASSIGN_OR_RETURN(uint32_t rsvd_hi, r.ReadU32());
    // Reserved bytes are zero by construction; enforcing that makes a
    // bit flip anywhere in the header detectable.
    if (rsvd_lo != 0 || rsvd_hi != 0) return Bad("reserved bytes not zero");
    if (h->crc_off != h->data_end) return Bad("crc table offset mismatch");
    const uint64_t data_bytes = h->data_end - Pws3Codec::kHeaderSize;
    const uint64_t expect_blocks =
        (data_bytes + Pws3Codec::kCrcBlockSize - 1) / Pws3Codec::kCrcBlockSize;
    if (h->crc_count != expect_blocks) return Bad("crc table size mismatch");
    h->meta_off = h->data_end + uint64_t{4} * h->crc_count;
  } else {
    h->meta_off = h->data_end;
  }
  if (h->meta_off > bytes.size() ||
      h->meta_size > bytes.size() - h->meta_off ||
      h->meta_off + h->meta_size != bytes.size()) {
    return Bad("section directory out of range");
  }
  if (h->num_segments == 0 || h->num_segments > (1u << 20)) {
    return Bad("segment count out of range");
  }
  if (h->version >= 2) {
    uint32_t table_crc =
        Crc32(bytes.data() + h->crc_off, uint64_t{4} * h->crc_count);
    if (table_crc != h->crc_table_crc) {
      return Bad("crc table checksum mismatch");
    }
  }
  uint32_t crc = Crc32(bytes.data() + h->meta_off, h->meta_size);
  if (crc != h->meta_crc) return Bad("metadata checksum mismatch");
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------

std::vector<uint8_t> Pws3Codec::Encode(const SynopsisSet& set) {
  ImageBuilder b;
  ByteWriter* m = b.meta();
  for (const SynopsisSet::Segment& seg : set.segments_) {
    m->WriteU64(seg.meta.row_begin);
    m->WriteU64(seg.meta.row_end);
    const ColumnRanges& ranges = seg.meta.ranges;
    m->WriteVarint(ranges.valid.size());
    for (size_t c = 0; c < ranges.valid.size(); ++c) {
      m->WriteU8(ranges.valid[c]);
      m->WriteF64(ranges.min[c]);
      m->WriteF64(ranges.max[c]);
    }

    const PairwiseHist& ph = *seg.synopsis;
    m->WriteU64(ph.total_rows_);
    m->WriteU64(ph.sample_rows_);
    m->WriteU64(ph.min_points_);
    m->WriteF64(ph.alpha_);
    m->WriteVarint(ph.transforms_.size());
    for (const ColumnTransform& tr : ph.transforms_) WriteTransform(m, tr);

    for (const HistogramDim& h : ph.hist1d_) b.Dim(h);

    m->WriteVarint(ph.pairs_.size());
    for (const PairHistogram& p : ph.pairs_) {
      m->WriteU32(p.col_i);
      m->WriteU32(p.col_j);
      b.Dim(p.dim_i);
      b.Dim(p.dim_j);
      b.Arr(p.cell_colpre_i);
      b.Arr(p.cell_colpre_j);
      b.Arr(p.nonnull_frac_i);
      b.Arr(p.nonnull_frac_j);
    }
  }
  return b.Finish(static_cast<uint32_t>(set.segments_.size()));
}

StatusOr<SynopsisSet> Pws3Codec::Decode(
    std::span<const uint8_t> bytes,
    std::shared_ptr<const MappedFile> backing) {
  Header hdr;
  PH_RETURN_IF_ERROR(ReadHeader(bytes, &hdr));
  if (hdr.version == 1) BumpPws3LegacyOpenCount();

  // Heap opens verify every payload block eagerly: the bytes are about
  // to be copied anyway, so the sweep is one extra sequential pass and
  // corruption fails the open instead of surfacing as wrong answers.
  // Mapped opens stay O(metadata); their blocks are verified lazily by
  // the scrubber (or synchronously by VerifyAll).
  if (hdr.version >= 2 && backing == nullptr) {
    for (uint32_t k = 0; k < hdr.crc_count; ++k) {
      const uint64_t begin =
          Pws3Codec::kHeaderSize + uint64_t{k} * Pws3Codec::kCrcBlockSize;
      const uint64_t end =
          std::min<uint64_t>(hdr.data_end, begin + Pws3Codec::kCrcBlockSize);
      uint32_t want = 0;
      std::memcpy(&want, bytes.data() + hdr.crc_off + uint64_t{4} * k, 4);
      if (Crc32(bytes.data() + begin, end - begin) != want) {
        return Bad("data block " + std::to_string(k) + " checksum mismatch");
      }
    }
  }

  LoadCtx ctx;
  ctx.bytes = bytes;
  ctx.data_end = hdr.data_end;
  ctx.zero_copy = backing != nullptr;

  ByteReader r(bytes.data() + hdr.meta_off, hdr.meta_size);

  SynopsisSet out;
  std::vector<Pws3Integrity::SegmentSpan> spans(hdr.num_segments);
  out.segments_.resize(hdr.num_segments);
  for (uint32_t s = 0; s < hdr.num_segments; ++s) {
    ctx.seg_lo = hdr.data_end;  // min/max identities for the span fold
    ctx.seg_hi = Pws3Codec::kHeaderSize;
    SynopsisSet::Segment& seg = out.segments_[s];
    // Quarantine flags are per SPAN of the decoded file; remember which
    // span this segment came from so later reindexing (compaction) keeps
    // attributing flags correctly.
    seg.integrity_span = s;
    PH_ASSIGN_OR_RETURN(seg.meta.row_begin, r.ReadU64());
    PH_ASSIGN_OR_RETURN(seg.meta.row_end, r.ReadU64());
    PH_ASSIGN_OR_RETURN(uint64_t nranges, r.ReadVarint());
    if (nranges > r.remaining()) return Bad("range count out of range");
    ColumnRanges& ranges = seg.meta.ranges;
    ranges.valid.resize(nranges);
    ranges.min.resize(nranges);
    ranges.max.resize(nranges);
    for (uint64_t c = 0; c < nranges; ++c) {
      PH_ASSIGN_OR_RETURN(ranges.valid[c], r.ReadU8());
      PH_ASSIGN_OR_RETURN(ranges.min[c], r.ReadF64());
      PH_ASSIGN_OR_RETURN(ranges.max[c], r.ReadF64());
    }

    PairwiseHist ph;  // private ctor: Pws3Codec is a friend
    PH_ASSIGN_OR_RETURN(ph.total_rows_, r.ReadU64());
    PH_ASSIGN_OR_RETURN(ph.sample_rows_, r.ReadU64());
    PH_ASSIGN_OR_RETURN(ph.min_points_, r.ReadU64());
    PH_ASSIGN_OR_RETURN(ph.alpha_, r.ReadF64());
    PH_ASSIGN_OR_RETURN(uint64_t d, r.ReadVarint());
    if (d > (1u << 16)) return Bad("column count out of range");
    // Process-wide per-alpha cache: the eager chi-squared quantile fill
    // would otherwise be the only real compute on this O(1) open path.
    ph.critical_ = SharedChi2CriticalCache(ph.alpha_);
    ph.backing_ = backing;

    ph.transforms_.reserve(d);
    for (uint64_t c = 0; c < d; ++c) {
      PH_ASSIGN_OR_RETURN(ColumnTransform tr, ReadTransform(&r));
      ph.transforms_.push_back(std::move(tr));
    }

    ph.hist1d_.resize(d);
    for (uint64_t c = 0; c < d; ++c) {
      PH_RETURN_IF_ERROR(LoadDim(&r, &ctx, /*parent_bins=*/0,
                                 &ph.hist1d_[c]));
    }

    PH_ASSIGN_OR_RETURN(uint64_t npairs, r.ReadVarint());
    if (npairs != d * (d - 1) / 2) return Bad("pair count mismatch");
    ph.pairs_.resize(npairs);
    size_t slot = 0;
    for (uint64_t i = 1; i < d; ++i) {
      for (uint64_t j = 0; j < i; ++j, ++slot) {
        PairHistogram& p = ph.pairs_[slot];
        PH_ASSIGN_OR_RETURN(p.col_i, r.ReadU32());
        PH_ASSIGN_OR_RETURN(p.col_j, r.ReadU32());
        if (p.col_i != i || p.col_j != j) return Bad("pair slot mismatch");
        PH_RETURN_IF_ERROR(
            LoadDim(&r, &ctx, ph.hist1d_[i].NumBins(), &p.dim_i));
        PH_RETURN_IF_ERROR(
            LoadDim(&r, &ctx, ph.hist1d_[j].NumBins(), &p.dim_j));
        const size_t ki = p.dim_i.NumBins();
        const size_t kj = p.dim_j.NumBins();
        if (hdr.version < 3) {
          // v1/v2 also stored the row-major cells and row-major prefixes:
          // validated like any array (and inside the segment's integrity
          // span), then dropped.
          VecView<uint64_t> obsolete;
          PH_RETURN_IF_ERROR(LoadArr(&r, &ctx, ki * kj, &obsolete, "cells"));
          PH_RETURN_IF_ERROR(LoadArr(&r, &ctx, ki * (kj + 1), &obsolete,
                                     "row-major prefix i"));
          PH_RETURN_IF_ERROR(LoadArr(&r, &ctx, kj * (ki + 1), &obsolete,
                                     "row-major prefix j"));
        }
        PH_RETURN_IF_ERROR(LoadArr(&r, &ctx, (kj + 1) * ki,
                                   &p.cell_colpre_i, "cell_colpre_i"));
        PH_RETURN_IF_ERROR(LoadArr(&r, &ctx, (ki + 1) * kj,
                                   &p.cell_colpre_j, "cell_colpre_j"));
        PH_RETURN_IF_ERROR(LoadArr(&r, &ctx, ph.hist1d_[i].NumBins(),
                                   &p.nonnull_frac_i, "nonnull_frac_i",
                                   /*optional=*/true));
        PH_RETURN_IF_ERROR(LoadArr(&r, &ctx, ph.hist1d_[j].NumBins(),
                                   &p.nonnull_frac_j, "nonnull_frac_j",
                                   /*optional=*/true));
      }
    }
    // Execution indexes were persisted verbatim — no FinishExecIndex.
    seg.synopsis = std::make_shared<PairwiseHist>(std::move(ph));
    if (ctx.seg_hi > ctx.seg_lo) spans[s] = {ctx.seg_lo, ctx.seg_hi};
  }
  if (r.remaining() != 0) return Bad("trailing metadata bytes");
  out.mapped_bytes_ = backing ? bytes.size() : 0;
  if (backing != nullptr && hdr.version >= 2) {
    std::vector<uint32_t> crcs(hdr.crc_count);
    if (hdr.crc_count > 0) {
      std::memcpy(crcs.data(), bytes.data() + hdr.crc_off,
                  uint64_t{4} * hdr.crc_count);
    }
    out.integrity_ = std::make_shared<Pws3Integrity>(
        backing, Pws3Codec::kHeaderSize, hdr.data_end, std::move(crcs),
        std::move(spans));
  }
  return out;
}

// ---------------------------------------------------------------------------
// SynopsisSet entry points (declared in synopsis_set.h).

std::vector<uint8_t> SynopsisSet::SerializeMapped() const {
  return Pws3Codec::Encode(*this);
}

Status SynopsisSet::SaveMapped(const std::string& path) const {
  std::vector<uint8_t> image = Pws3Codec::Encode(*this);
  return WriteFileAtomic(path, image.data(), image.size());
}

StatusOr<SynopsisSet> SynopsisSet::OpenMapped(const std::string& path) {
  PH_ASSIGN_OR_RETURN(MappedFile mf, MappedFile::Open(path));
  uint32_t magic = 0;
  if (mf.size() >= 4) std::memcpy(&magic, mf.bytes().data(), 4);
  if (magic != Pws3Codec::kMagic) {
    // Legacy PWS2/PWH1 file: heap-convert through the span reader (the
    // mapping serves as the read buffer and is unmapped on return).
    return Deserialize(mf.bytes());
  }
  auto backing = std::make_shared<const MappedFile>(std::move(mf));
  // Cold open: kick off one readahead batch for the metadata section (the
  // only bytes Decode touches) instead of faulting it in page by page
  // while the CRC and the varint walk run. Bounds are validated again by
  // ReadHeader; a garbage data_end at worst advises a wrong range.
  if (backing->size() >= Pws3Codec::kHeaderSize) {
    uint64_t data_end = 0;
    std::memcpy(&data_end, backing->bytes().data() + 16, 8);
    if (data_end < backing->size()) {
      backing->Advise(MappedFile::Advice::kWillNeed, data_end,
                      backing->size() - data_end);
    }
  }
  PH_ASSIGN_OR_RETURN(SynopsisSet set,
                      Pws3Codec::Decode(backing->bytes(), backing));
  // Truncation-under-open check: if the file shrank after the mmap was
  // established, reads past the new EOF would SIGBUS. Fail the open
  // cleanly instead of handing out a mapping with a hole.
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0 ||
      static_cast<uint64_t>(st.st_size) < backing->size()) {
    return Bad("'" + path + "' truncated while opening");
  }
  return set;
}

}  // namespace pairwisehist
