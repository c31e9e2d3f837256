// SynopsisSet: the segmented synopsis — one sealed PairwiseHist per row
// segment of a table, plus planner metadata, built in parallel and
// persisted in a versioned multi-segment extension of the Fig.-6 encoding.
//
// The single monolithic synopsis of the paper is the one-segment special
// case; everything downstream (SegmentedExecutor, Db) collapses to the
// exact pre-segmentation behaviour when NumSegments() == 1. Appends seal
// new segments with fresh bin edges instead of mutating existing bins, so
// accuracy does not drift as appended data departs from the original
// distribution. A sealed segment is read-only (its histogram arrays are
// written once, when built or decoded): the set only ever gains segments
// (sealing) or replaces a run of them wholesale (compaction), so sets
// share segments freely.
//
// Persistence: container magic "PWS2" wrapping one standard PWH1 blob per
// segment plus its row range and pruning ranges. Deserialize also accepts a
// bare PWH1 blob (a PR-1-era single-synopsis file) and wraps it as one
// segment with unknown pruning ranges.
#ifndef PAIRWISEHIST_CORE_SYNOPSIS_SET_H_
#define PAIRWISEHIST_CORE_SYNOPSIS_SET_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/pairwise_hist.h"
#include "storage/segment.h"

namespace pairwisehist {

class Pws3Integrity;  // core/integrity.h

/// Per-segment metadata riding next to the synopsis: the row range it was
/// sealed from and the planner pruning ranges.
struct SegmentMeta {
  uint64_t row_begin = 0;
  uint64_t row_end = 0;
  ColumnRanges ranges;  ///< raw-domain min/max per column (may be invalid)
};

class SynopsisSet {
 public:
  SynopsisSet() = default;
  SynopsisSet(SynopsisSet&&) = default;
  SynopsisSet& operator=(SynopsisSet&&) = default;

  /// Builds one synopsis per segment of `st`. With several segments the
  /// builds fan out over `build_threads` (0 = one per core) with serial
  /// inner pair construction; a single segment keeps the inner pair-level
  /// parallelism instead. Output is deterministic for any thread count.
  /// Segment i samples with seed cfg.seed + i.
  static StatusOr<SynopsisSet> Build(const SegmentedTable& st,
                                     const PairwiseHistConfig& cfg,
                                     unsigned build_threads);

  /// Wraps an already-built synopsis as a single segment.
  static SynopsisSet FromSingle(PairwiseHist ph, SegmentMeta meta);

  /// Seals every segment of `st` as new segments, all-or-nothing: every
  /// synopsis (fresh bin edges — no accuracy drift) is built before the
  /// set is mutated, so a mid-batch build failure leaves the set exactly
  /// as it was. Rows keep arriving densely: new segments span
  /// [total_rows, total_rows + n). Segment k of the batch samples with
  /// seed cfg.seed + NumSegments() + k.
  Status SealSegments(const SegmentedTable& st,
                      const PairwiseHistConfig& cfg);

  // ---- Copy-on-append snapshots -----------------------------------------
  /// Returns a set sharing every sealed segment with this one (segments
  /// are immutable once sealed, so sharing is always safe).
  SynopsisSet Share() const;
  /// Copy-on-append: returns a NEW set that shares this set's sealed
  /// segments and additionally seals every segment of `st`, leaving
  /// `this` untouched. Seeds and row ranges are identical to calling
  /// SealSegments(st, cfg) in place, so readers of the old and new set
  /// see bit-identical segments where they overlap.
  StatusOr<SynopsisSet> WithSealed(const SegmentedTable& st,
                                   const PairwiseHistConfig& cfg) const;

  // ---- Compaction (see storage/compactor.h) -----------------------------
  /// Locates the contiguous run of segments spanning EXACTLY rows
  /// [row_begin, row_end); returns the half-open segment index range.
  /// NotFound when no run aligns (e.g. the range was already compacted).
  /// Stable across appends: sealing only ever adds segments past the end.
  StatusOr<std::pair<size_t, size_t>> FindRun(uint64_t row_begin,
                                              uint64_t row_end) const;
  /// Replaces segments [begin, end) with one already-built merged segment
  /// covering the same rows. Bumps structure_generation(): executors must
  /// rebuild engines and recompile every plan (indices shifted), not just
  /// extend the tail. The replaced segment carries no integrity span, so
  /// replacing a quarantined segment drains it from the quarantine set.
  Status ReplaceRun(size_t begin, size_t end,
                    std::shared_ptr<PairwiseHist> merged, SegmentMeta meta);
  /// Copy-on-compact: a NEW set sharing every segment except the replaced
  /// run, leaving `this` untouched (the serving snapshot-swap path).
  StatusOr<SynopsisSet> WithReplacedRun(size_t begin, size_t end,
                                        std::shared_ptr<PairwiseHist> merged,
                                        SegmentMeta meta) const;
  /// Bumped whenever existing segments are REPLACED (compaction); pure
  /// growth (sealing) leaves it alone. A change means cached per-segment
  /// engines/plans are structurally stale.
  uint64_t structure_generation() const { return structure_generation_; }
  /// Whether segment i (by CURRENT index) is quarantined. Integrity spans
  /// are remembered per segment, so this stays correct after compaction
  /// shifts indices.
  bool SegmentQuarantined(size_t i) const;

  // ---- Introspection ----------------------------------------------------
  size_t NumSegments() const { return segments_.size(); }
  const PairwiseHist& synopsis(size_t i) const {
    return *segments_[i].synopsis;
  }
  const SegmentMeta& meta(size_t i) const { return segments_[i].meta; }

  /// Total N across segments.
  uint64_t total_rows() const;
  /// Column count (identical across segments by construction).
  size_t num_columns() const {
    return segments_.empty() ? 0 : segments_[0].synopsis->num_columns();
  }

  // ---- Persistence ------------------------------------------------------
  /// Compact Fig.-6 PWS2 container (the paper's storage encoding; this is
  /// what StorageBytes measures).
  std::vector<uint8_t> Serialize() const;
  /// Accepts the PWS2 container, a bare legacy PWH1 blob, or a PWS3 image
  /// at any address (decoded from one aligned copy, like a heap open).
  static StatusOr<SynopsisSet> Deserialize(std::span<const uint8_t> blob);
  size_t StorageBytes() const;

  // ---- PWS3 memory-mapped persistence (core/pws3.cc) --------------------
  /// Flat 64-byte-aligned PWS3 image including every FinishExecIndex-
  /// derived structure, so opening needs no recomputation. Larger on disk
  /// than Serialize() — the classic space-for-startup trade.
  std::vector<uint8_t> SerializeMapped() const;
  /// O(1) open: validates the header + metadata stream and binds every
  /// array as a span view into the mapping. The mapping stays alive (and
  /// shared page-cache-backed across processes) until the last segment
  /// referencing it is destroyed. Legacy PWS2/PWH1 files heap-convert
  /// transparently.
  static StatusOr<SynopsisSet> OpenMapped(const std::string& path);

  /// Reads the whole file once into an aligned heap buffer, which a PWS3
  /// image's segments then own (same decode as OpenMapped); a legacy
  /// PWS2/PWH1 file decodes from it.
  static StatusOr<SynopsisSet> OpenHeap(const std::string& path);

  /// Bytes currently memory-mapped by this set (0 for heap-opened sets).
  size_t mapped_bytes() const { return mapped_bytes_; }
  bool mapped() const { return mapped_bytes_ != 0; }

  // ---- Integrity (PWS3 v2 mapped opens only; see core/integrity.h) ------
  /// The verification state of the mapping backing this set's segments,
  /// or null for heap sets, legacy files and built-in-memory sets.
  /// Shared (not copied) by Share()/WithSealed(), so a quarantine raised
  /// through any snapshot is visible to all of them.
  const std::shared_ptr<Pws3Integrity>& integrity() const {
    return integrity_;
  }
  /// Synchronous checksum sweep of the backing mapping; OK (trivially)
  /// when there is no integrity state. Failing blocks quarantine their
  /// segments as a side effect.
  Status VerifyIntegrity() const;
  /// Starts the background scrubber over the backing mapping (no-op
  /// without integrity state). See Pws3Integrity::StartScrub.
  void StartScrub(uint32_t mb_per_s, uint32_t repeat_ms) const;
  bool has_quarantine() const;
  size_t quarantined_segment_count() const;
  /// Total rows in quarantined segments (what degraded answers skip).
  uint64_t quarantined_rows() const;
  uint64_t quarantine_version() const;
  uint64_t scrub_errors() const;
  /// Returns a set sharing only the non-quarantined segments — the
  /// degraded-serving view. Drops the integrity handle (the mapping
  /// itself stays alive through the shared segments' backing handles) so
  /// the scrubber is not double-started, and keeps mapped_bytes_.
  SynopsisSet ShareHealthy() const;

 private:
  friend class Pws3Codec;
  /// shared_ptr because sealed segments are immutable and shared across
  /// copy-on-append snapshots (WithSealed).
  struct Segment {
    /// "This segment is not backed by an integrity span" (heap-built:
    /// sealed appends and compaction-merged segments).
    static constexpr size_t kNoSpan = static_cast<size_t>(-1);

    std::shared_ptr<PairwiseHist> synopsis;
    SegmentMeta meta;
    /// Index into integrity_'s spans for mapped segments. Kept per
    /// segment (not derived from position) so compaction can replace and
    /// reindex segments without misattributing quarantine flags.
    size_t integrity_span = kNoSpan;
  };

  /// Shared per-segment build fan-out: fills out[i] for every segment of
  /// `st` (deterministic fixed slots; parallel across segments when there
  /// are several, inner pair-parallel otherwise). Segment i samples with
  /// seed cfg.seed + seed_offset + i and spans row_base + st.span(i).
  static Status BuildInto(const SegmentedTable& st,
                          const PairwiseHistConfig& cfg,
                          unsigned build_threads, size_t seed_offset,
                          uint64_t row_base, std::vector<Segment>* out);

  std::vector<Segment> segments_;
  /// Bumped by ReplaceRun (compaction); see structure_generation().
  uint64_t structure_generation_ = 0;
  /// Size of the PWS3 mapping backing this set's segments (0 = heap).
  /// Copied by Share()/WithSealed() — shared segments keep borrowing.
  size_t mapped_bytes_ = 0;
  /// Verification state of the backing mapping (PWS3 v2 mapped opens
  /// only). Span index i == segment index i of the decoded file; segments
  /// sealed later (appends) are heap-built and carry no span.
  std::shared_ptr<Pws3Integrity> integrity_;
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_CORE_SYNOPSIS_SET_H_
