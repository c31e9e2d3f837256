#include "core/synopsis_set.h"

#include <utility>

#include "common/parallel.h"
#include "common/serialize.h"
#include "core/integrity.h"
#include "core/pws3.h"

namespace pairwisehist {

namespace {

// Container magic "PWS2" — distinct from the per-synopsis "PWH1" so a
// reader can tell a multi-segment file from a legacy single-synopsis one
// by its first four bytes.
constexpr uint32_t kSetMagic = 0x50575332;
constexpr uint32_t kLegacyMagic = 0x50574831;  // "PWH1"
constexpr uint32_t kSetVersion = 1;

}  // namespace

Status SynopsisSet::BuildInto(const SegmentedTable& st,
                              const PairwiseHistConfig& cfg,
                              unsigned build_threads, size_t seed_offset,
                              uint64_t row_base,
                              std::vector<Segment>* out) {
  const size_t nseg = st.NumSegments();
  out->clear();
  out->resize(nseg);

  // One segment: identical to the monolithic build (inner pair-level
  // parallelism, same seed). Several segments: fan out across segments
  // with serial inner builds so the machine is not oversubscribed; each
  // segment writes its fixed slot, so output is thread-count independent.
  std::vector<Status> statuses(nseg, Status::OK());
  auto build_one = [&](size_t i, const PairwiseHistConfig& seg_cfg) {
    // A span covering the whole base table (the default single-segment
    // build) needs no row copy.
    const bool whole = st.span(i).begin == 0 &&
                       st.span(i).end == st.base().NumRows();
    auto ph = whole ? PairwiseHist::BuildFromTable(st.base(), seg_cfg)
                    : PairwiseHist::BuildFromTable(st.Materialize(i),
                                                   seg_cfg);
    if (!ph.ok()) {
      statuses[i] = ph.status();
      return;
    }
    Segment& slot = (*out)[i];
    slot.synopsis = std::make_shared<PairwiseHist>(std::move(ph).value());
    slot.meta.row_begin = row_base + st.span(i).begin;
    slot.meta.row_end = row_base + st.span(i).end;
    slot.meta.ranges = st.Ranges(i);
  };

  if (nseg <= 1) {
    PairwiseHistConfig seg_cfg = cfg;
    seg_cfg.seed = cfg.seed + seed_offset;
    if (build_threads != 0) seg_cfg.build_threads = build_threads;
    build_one(0, seg_cfg);
  } else {
    ParallelFor(nseg, build_threads, [&](size_t i, unsigned) {
      PairwiseHistConfig seg_cfg = cfg;
      seg_cfg.seed = cfg.seed + seed_offset + i;
      seg_cfg.build_threads = 1;
      build_one(i, seg_cfg);
    });
  }
  for (const Status& st_i : statuses) {
    if (!st_i.ok()) return st_i;
  }
  return Status::OK();
}

StatusOr<SynopsisSet> SynopsisSet::Build(const SegmentedTable& st,
                                         const PairwiseHistConfig& cfg,
                                         unsigned build_threads) {
  SynopsisSet out;
  PH_RETURN_IF_ERROR(BuildInto(st, cfg, build_threads, /*seed_offset=*/0,
                               /*row_base=*/0, &out.segments_));
  return out;
}

SynopsisSet SynopsisSet::FromSingle(PairwiseHist ph, SegmentMeta meta) {
  SynopsisSet out;
  out.segments_.resize(1);
  out.segments_[0].synopsis =
      std::make_shared<PairwiseHist>(std::move(ph));
  out.segments_[0].meta = std::move(meta);
  return out;
}

Status SynopsisSet::SealSegments(const SegmentedTable& st,
                                 const PairwiseHistConfig& cfg) {
  // Phase 1: build every new synopsis without touching the set (same
  // parallel fan-out as the initial build), so a failure part-way through
  // a multi-chunk batch cannot leave it half-appended.
  std::vector<Segment> fresh;
  PH_RETURN_IF_ERROR(BuildInto(st, cfg, cfg.build_threads,
                               /*seed_offset=*/segments_.size(),
                               /*row_base=*/total_rows(), &fresh));
  // Phase 2: commit.
  for (Segment& seg : fresh) segments_.push_back(std::move(seg));
  return Status::OK();
}

SynopsisSet SynopsisSet::Share() const {
  SynopsisSet out;
  out.segments_ = segments_;  // shares every (immutable) synopsis
  out.structure_generation_ = structure_generation_;
  out.mapped_bytes_ = mapped_bytes_;  // shared segments keep borrowing
  out.integrity_ = integrity_;  // one quarantine state across snapshots
  return out;
}

StatusOr<std::pair<size_t, size_t>> SynopsisSet::FindRun(
    uint64_t row_begin, uint64_t row_end) const {
  size_t begin = segments_.size();
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].meta.row_begin == row_begin) {
      begin = i;
      break;
    }
  }
  for (size_t end = begin; end < segments_.size(); ++end) {
    if (segments_[end].meta.row_end == row_end) {
      return std::make_pair(begin, end + 1);
    }
    if (segments_[end].meta.row_end > row_end) break;
  }
  return Status::NotFound(
      "SynopsisSet: no segment run spans rows [" +
      std::to_string(row_begin) + ", " + std::to_string(row_end) + ")");
}

Status SynopsisSet::ReplaceRun(size_t begin, size_t end,
                               std::shared_ptr<PairwiseHist> merged,
                               SegmentMeta meta) {
  if (begin >= end || end > segments_.size() || merged == nullptr) {
    return Status::InvalidArgument("ReplaceRun: bad segment range");
  }
  if (segments_[begin].meta.row_begin != meta.row_begin ||
      segments_[end - 1].meta.row_end != meta.row_end) {
    return Status::InvalidArgument(
        "ReplaceRun: replacement rows do not match the replaced run");
  }
  Segment seg;
  seg.synopsis = std::move(merged);
  seg.meta = std::move(meta);
  // seg.integrity_span stays kNoSpan: the rebuilt segment is heap-built,
  // so replacing a quarantined segment removes it from the quarantine set.
  segments_[begin] = std::move(seg);
  segments_.erase(segments_.begin() + static_cast<ptrdiff_t>(begin) + 1,
                  segments_.begin() + static_cast<ptrdiff_t>(end));
  ++structure_generation_;
  return Status::OK();
}

StatusOr<SynopsisSet> SynopsisSet::WithReplacedRun(
    size_t begin, size_t end, std::shared_ptr<PairwiseHist> merged,
    SegmentMeta meta) const {
  SynopsisSet out = Share();
  PH_RETURN_IF_ERROR(
      out.ReplaceRun(begin, end, std::move(merged), std::move(meta)));
  return out;
}

bool SynopsisSet::SegmentQuarantined(size_t i) const {
  return integrity_ != nullptr && i < segments_.size() &&
         segments_[i].integrity_span != Segment::kNoSpan &&
         integrity_->quarantined(segments_[i].integrity_span);
}

Status SynopsisSet::VerifyIntegrity() const {
  return integrity_ ? integrity_->VerifyAll() : Status::OK();
}

void SynopsisSet::StartScrub(uint32_t mb_per_s, uint32_t repeat_ms) const {
  if (integrity_) integrity_->StartScrub(mb_per_s, repeat_ms);
}

bool SynopsisSet::has_quarantine() const {
  // The flags live on the mapping's spans; whether any CURRENT segment is
  // affected depends on which segments still reference a quarantined span
  // (compaction rebuilds segments span-free, draining the quarantine).
  if (!integrity_ || !integrity_->any_quarantined()) return false;
  return quarantined_segment_count() > 0;
}

size_t SynopsisSet::quarantined_segment_count() const {
  if (!integrity_) return 0;
  size_t n = 0;
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (SegmentQuarantined(i)) ++n;
  }
  return n;
}

uint64_t SynopsisSet::quarantined_rows() const {
  if (!integrity_) return 0;
  uint64_t n = 0;
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (SegmentQuarantined(i)) n += segments_[i].synopsis->total_rows();
  }
  return n;
}

uint64_t SynopsisSet::quarantine_version() const {
  return integrity_ ? integrity_->quarantine_version() : 0;
}

uint64_t SynopsisSet::scrub_errors() const {
  return integrity_ ? integrity_->scrub_errors() : 0;
}

SynopsisSet SynopsisSet::ShareHealthy() const {
  SynopsisSet out;
  out.structure_generation_ = structure_generation_;
  out.mapped_bytes_ = mapped_bytes_;
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (SegmentQuarantined(i)) continue;
    out.segments_.push_back(segments_[i]);
  }
  return out;
}

StatusOr<SynopsisSet> SynopsisSet::WithSealed(
    const SegmentedTable& st, const PairwiseHistConfig& cfg) const {
  SynopsisSet out = Share();
  PH_RETURN_IF_ERROR(out.SealSegments(st, cfg));
  return out;
}

uint64_t SynopsisSet::total_rows() const {
  uint64_t n = 0;
  for (const Segment& s : segments_) n += s.synopsis->total_rows();
  return n;
}

std::vector<uint8_t> SynopsisSet::Serialize() const {
  ByteWriter w;
  w.WriteU32(kSetMagic);
  w.WriteU32(kSetVersion);
  w.WriteVarint(segments_.size());
  for (const Segment& s : segments_) {
    w.WriteU64(s.meta.row_begin);
    w.WriteU64(s.meta.row_end);
    const ColumnRanges& r = s.meta.ranges;
    w.WriteVarint(r.valid.size());
    for (size_t c = 0; c < r.valid.size(); ++c) {
      w.WriteU8(r.valid[c]);
      w.WriteF64(r.min[c]);
      w.WriteF64(r.max[c]);
    }
    w.WriteBytes(s.synopsis->Serialize());
  }
  return w.Finish();
}

StatusOr<SynopsisSet> SynopsisSet::Deserialize(std::span<const uint8_t> blob) {
  ByteReader peek(blob);
  PH_ASSIGN_OR_RETURN(uint32_t magic, peek.ReadU32());

  if (magic == Pws3Codec::kMagic) return Pws3Codec::DecodeCopy(blob);
  if (magic == kLegacyMagic) {
    // PR-1-era single-synopsis file: wrap as one segment. Pruning ranges
    // are unknown (col_valid all zero), so the planner never prunes.
    PH_ASSIGN_OR_RETURN(PairwiseHist ph, PairwiseHist::Deserialize(blob));
    SegmentMeta meta;
    meta.row_begin = 0;
    meta.row_end = ph.total_rows();
    meta.ranges.min.assign(ph.num_columns(), 0.0);
    meta.ranges.max.assign(ph.num_columns(), 0.0);
    meta.ranges.valid.assign(ph.num_columns(), 0);
    return FromSingle(std::move(ph), std::move(meta));
  }
  if (magic != kSetMagic) {
    return Status::DataLoss("SynopsisSet: bad magic");
  }

  ByteReader r(blob);
  (void)r.ReadU32();  // magic, already checked
  PH_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version == 0 || version > kSetVersion) {
    return Status::DataLoss("SynopsisSet: unsupported container version " +
                            std::to_string(version));
  }
  PH_ASSIGN_OR_RETURN(uint64_t nseg, r.ReadVarint());
  if (nseg == 0 || nseg > r.remaining()) {
    return Status::DataLoss("SynopsisSet: segment count out of range");
  }
  SynopsisSet out;
  out.segments_.resize(nseg);
  for (uint64_t i = 0; i < nseg; ++i) {
    Segment& seg = out.segments_[i];
    PH_ASSIGN_OR_RETURN(seg.meta.row_begin, r.ReadU64());
    PH_ASSIGN_OR_RETURN(seg.meta.row_end, r.ReadU64());
    PH_ASSIGN_OR_RETURN(uint64_t d, r.ReadVarint());
    if (d > r.remaining()) {
      return Status::DataLoss("SynopsisSet: column count out of range");
    }
    ColumnRanges& ranges = seg.meta.ranges;
    ranges.min.resize(d);
    ranges.max.resize(d);
    ranges.valid.resize(d);
    for (uint64_t c = 0; c < d; ++c) {
      PH_ASSIGN_OR_RETURN(ranges.valid[c], r.ReadU8());
      PH_ASSIGN_OR_RETURN(ranges.min[c], r.ReadF64());
      PH_ASSIGN_OR_RETURN(ranges.max[c], r.ReadF64());
    }
    PH_ASSIGN_OR_RETURN(std::span<const uint8_t> ph_blob, r.ReadBytesView());
    PH_ASSIGN_OR_RETURN(PairwiseHist ph, PairwiseHist::Deserialize(ph_blob));
    seg.synopsis = std::make_shared<PairwiseHist>(std::move(ph));
  }
  return out;
}

size_t SynopsisSet::StorageBytes() const { return Serialize().size(); }

}  // namespace pairwisehist
