#include "core/integrity.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/failpoint.h"
#include "storage/sigbus_guard.h"
#include "storage/wal.h"  // Crc32

namespace pairwisehist {

namespace {

std::atomic<uint64_t> g_legacy_opens{0};

}  // namespace

uint64_t Pws3LegacyOpenCount() {
  return g_legacy_opens.load(std::memory_order_relaxed);
}

void BumpPws3LegacyOpenCount() {
  g_legacy_opens.fetch_add(1, std::memory_order_relaxed);
}

Pws3Integrity::Pws3Integrity(std::shared_ptr<const MappedFile> backing,
                             uint64_t data_begin, uint64_t data_end,
                             std::vector<uint32_t> block_crcs,
                             std::vector<SegmentSpan> spans)
    : backing_(std::move(backing)),
      data_begin_(data_begin),
      data_end_(data_end),
      crcs_(std::move(block_crcs)),
      spans_(std::move(spans)),
      quarantined_(new std::atomic<uint8_t>[spans_.empty() ? 1
                                                           : spans_.size()]) {
  for (size_t i = 0; i < spans_.size(); ++i) {
    quarantined_[i].store(0, std::memory_order_relaxed);
  }
}

Pws3Integrity::~Pws3Integrity() { StopScrub(); }

Status Pws3Integrity::VerifyBlock(size_t k) {
  if (k >= crcs_.size()) return Status::OK();
  blocks_verified_.fetch_add(1, std::memory_order_relaxed);
  Status st = failpoint::Fire("scrub.verify").status;
  if (st.ok()) {
    const uint64_t begin = data_begin_ + k * kBlockSize;
    const uint64_t end = std::min<uint64_t>(data_end_, begin + kBlockSize);
    const uint8_t* base = backing_->bytes().data();
    const uint32_t want = crcs_[k];
    // The guarded body is a pure CRC walk (longjmp-safe); the mismatch
    // Status is built only after the reads completed.
    uint32_t got = 0;
    st = WithSigbusGuard([&]() -> Status {
      got = Crc32(base + begin, end - begin);
      return Status::OK();
    });
    if (st.ok() && got != want) {
      st = Status::DataLoss("PWS3: data block " + std::to_string(k) +
                            " checksum mismatch in '" + backing_->path() +
                            "'");
    }
  }
  if (!st.ok()) {
    scrub_errors_.fetch_add(1, std::memory_order_relaxed);
    QuarantineBlock(k);
  }
  return st;
}

void Pws3Integrity::QuarantineBlock(size_t k) {
  const uint64_t begin = data_begin_ + k * kBlockSize;
  const uint64_t end = std::min<uint64_t>(data_end_, begin + kBlockSize);
  for (size_t s = 0; s < spans_.size(); ++s) {
    const SegmentSpan& sp = spans_[s];
    if (sp.begin >= sp.end) continue;  // segment with no payload bytes
    if (sp.begin < end && begin < sp.end) {
      if (quarantined_[s].exchange(1, std::memory_order_acq_rel) == 0) {
        quarantined_count_.fetch_add(1, std::memory_order_release);
        qversion_.fetch_add(1, std::memory_order_release);
      }
    }
  }
}

Status Pws3Integrity::VerifyAll() {
  Status first = Status::OK();
  for (size_t k = 0; k < crcs_.size(); ++k) {
    Status st = VerifyBlock(k);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

void Pws3Integrity::StartScrub(uint32_t mb_per_s, uint32_t repeat_ms) {
  std::lock_guard<std::mutex> lock(scrub_mu_);
  if (scrubber_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  scrubber_ = std::thread([this, mb_per_s, repeat_ms] {
    ScrubLoop(mb_per_s, repeat_ms);
  });
}

void Pws3Integrity::StopScrub() {
  std::lock_guard<std::mutex> lock(scrub_mu_);
  if (!scrubber_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  scrubber_.join();
}

void Pws3Integrity::ScrubLoop(uint32_t mb_per_s, uint32_t repeat_ms) {
  constexpr uint64_t kChunk = 1 << 20;  // throttle granularity: 1 MB
  do {
    // One readahead-friendly pass front to back.
    backing_->Advise(MappedFile::Advice::kSequential, data_begin_,
                     data_end_ - data_begin_);
    uint64_t since_sleep = 0;
    for (size_t k = 0; k < crcs_.size(); ++k) {
      if (stop_.load(std::memory_order_acquire)) return;
      (void)VerifyBlock(k);
      since_sleep += kBlockSize;
      if (mb_per_s > 0 && since_sleep >= kChunk) {
        since_sleep = 0;
        std::this_thread::sleep_for(
            std::chrono::microseconds(1000000 / mb_per_s));
      }
    }
    scrub_passes_.fetch_add(1, std::memory_order_release);
    if (repeat_ms == 0) return;
    for (uint32_t slept = 0;
         slept < repeat_ms && !stop_.load(std::memory_order_acquire);
         slept += 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  } while (!stop_.load(std::memory_order_acquire));
}

}  // namespace pairwisehist
