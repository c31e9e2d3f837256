// Pws3Integrity: the verification state behind one memory-mapped PWS3 v2
// synopsis — the owned copy of the per-block CRC table, the byte span each
// segment's arrays occupy in the data region, per-segment quarantine
// flags, and the background scrubber that sweeps the mapping.
//
// One instance is created by Pws3Codec::Decode per mapped v2 file and held
// (shared_ptr) by every SynopsisSet that borrows arrays from the mapping —
// copy-on-append snapshots share it, so a segment quarantined by the
// scrubber is immediately visible to every snapshot still serving it.
//
// Verification paths (all SIGBUS-guarded, so a file truncated under the
// mapping surfaces as DataLoss, never a process kill):
//  * VerifyAll(): synchronous full sweep — Db::VerifyIntegrity, recovery.
//  * StartScrub(): rate-limited background sweep on the scrubber thread.
// A failing block quarantines every segment whose arrays intersect it;
// serving fails closed (or degrades) on quarantined segments upstream.
#ifndef PAIRWISEHIST_CORE_INTEGRITY_H_
#define PAIRWISEHIST_CORE_INTEGRITY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "storage/mmap_file.h"

namespace pairwisehist {

class Pws3Integrity {
 public:
  /// CRC granularity: one u32 per 64 KB of the data region. Must match
  /// Pws3Codec::kCrcBlockSize (static_asserted in pws3.cc).
  static constexpr uint64_t kBlockSize = 64 * 1024;

  /// [begin, end) byte range of one segment's arrays within the file
  /// (contiguous by construction: Encode lays segments out in order).
  struct SegmentSpan {
    uint64_t begin = 0;
    uint64_t end = 0;
  };

  Pws3Integrity(std::shared_ptr<const MappedFile> backing,
                uint64_t data_begin, uint64_t data_end,
                std::vector<uint32_t> block_crcs,
                std::vector<SegmentSpan> spans);
  ~Pws3Integrity();  ///< stops and joins the scrubber

  Pws3Integrity(const Pws3Integrity&) = delete;
  Pws3Integrity& operator=(const Pws3Integrity&) = delete;

  /// Synchronous guarded sweep of every data block. Returns the first
  /// failure (and keeps sweeping so every bad block quarantines its
  /// segments); OK when the whole region checks out.
  Status VerifyAll();

  /// Verifies block `k`; on mismatch (or an injected `scrub.verify`
  /// fault, or SIGBUS) bumps scrub_errors and quarantines intersecting
  /// segments. Returns the verification status.
  Status VerifyBlock(size_t k);

  /// Starts the background scrubber (idempotent): one sweep of the data
  /// region, rate-limited to ~mb_per_s (0 = unthrottled); with
  /// repeat_ms > 0 the sweep re-runs forever with that pause between
  /// passes (continuous scrubbing).
  void StartScrub(uint32_t mb_per_s, uint32_t repeat_ms);
  void StopScrub();

  // ---- Quarantine / counters --------------------------------------------
  size_t num_spans() const { return spans_.size(); }
  bool quarantined(size_t seg) const {
    return seg < spans_.size() &&
           quarantined_[seg].load(std::memory_order_acquire) != 0;
  }
  bool any_quarantined() const {
    return quarantined_count_.load(std::memory_order_acquire) != 0;
  }
  uint64_t quarantined_count() const {
    return quarantined_count_.load(std::memory_order_acquire);
  }
  /// Bumped once per newly quarantined segment; degraded-snapshot caches
  /// key on it.
  uint64_t quarantine_version() const {
    return qversion_.load(std::memory_order_acquire);
  }
  uint64_t scrub_errors() const {
    return scrub_errors_.load(std::memory_order_relaxed);
  }
  uint64_t blocks_verified() const {
    return blocks_verified_.load(std::memory_order_relaxed);
  }
  bool scrub_pass_done() const {
    return scrub_passes_.load(std::memory_order_acquire) != 0;
  }
  const std::string& path() const { return backing_->path(); }

 private:
  void ScrubLoop(uint32_t mb_per_s, uint32_t repeat_ms);
  void QuarantineBlock(size_t k);

  std::shared_ptr<const MappedFile> backing_;
  const uint64_t data_begin_;
  const uint64_t data_end_;
  const std::vector<uint32_t> crcs_;
  const std::vector<SegmentSpan> spans_;
  std::unique_ptr<std::atomic<uint8_t>[]> quarantined_;  // one per span
  std::atomic<uint64_t> quarantined_count_{0};
  std::atomic<uint64_t> qversion_{0};
  std::atomic<uint64_t> scrub_errors_{0};
  std::atomic<uint64_t> blocks_verified_{0};
  std::atomic<uint64_t> scrub_passes_{0};
  std::atomic<bool> stop_{false};
  std::mutex scrub_mu_;  ///< guards scrubber_ start/join
  std::thread scrubber_;
};

/// Process-wide count of PWS3 v1 files opened (no payload checksums —
/// detection is limited to the metadata stream). Surfaced in /healthz so
/// operators notice pre-integrity checkpoints still in rotation.
uint64_t Pws3LegacyOpenCount();
void BumpPws3LegacyOpenCount();

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_CORE_INTEGRITY_H_
