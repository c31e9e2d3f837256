// Read-only memory-mapped files and the atomic file writer.
//
// MappedFile is the zero-copy substrate of PWS3 synopsis persistence: open
// maps the whole file MAP_SHARED/PROT_READ, so N processes opening the
// same synopsis share one page-cache copy and cold sections page in on
// demand instead of being deserialized up front (the technique of
// ExpressionMatrix2's MemoryMappedVector, applied to the Fig.-6 synopsis).
//
// WriteFileAtomic is the checkpoint discipline as a reusable helper: write
// <path>.tmp, fsync it, rename over <path>, fsync the directory — a reader
// never observes a torn file, only the old or the new bytes. Its two halves
// (WriteFileDurable, RenameDurable) are exposed for callers that act
// between them, like the serving checkpoint's failpoints.
#ifndef PAIRWISEHIST_STORAGE_MMAP_FILE_H_
#define PAIRWISEHIST_STORAGE_MMAP_FILE_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"

namespace pairwisehist {

/// A whole file mapped read-only. Movable, not copyable; unmaps on
/// destruction. The mapping stays valid if the file is later unlinked or
/// renamed over (POSIX), so checkpoint rotation never invalidates readers.
class MappedFile {
 public:
  /// Access-pattern hint forwarded to madvise(2).
  enum class Advice { kNormal, kSequential, kRandom, kWillNeed, kDontNeed };

  /// Opens and maps `path` read-only. The file descriptor is closed before
  /// returning (the mapping keeps the file alive). Empty files map as a
  /// valid zero-length view.
  static StatusOr<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& o) noexcept { *this = std::move(o); }
  MappedFile& operator=(MappedFile&& o) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const uint8_t> bytes() const {
    return {static_cast<const uint8_t*>(base_), size_};
  }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Applies `advice` to the whole mapping (best-effort; errors ignored).
  void Advise(Advice advice) const;

  /// Applies `advice` to [offset, offset + length) only, rounded out to
  /// page boundaries (best-effort). Lets the PWS3 open path prefetch the
  /// metadata section in one readahead batch instead of faulting it in
  /// page by page during the cold decode walk.
  void Advise(Advice advice, size_t offset, size_t length) const;

 private:
  void* base_ = nullptr;
  size_t size_ = 0;
  std::string path_;
};

/// Atomically replaces `path` with `bytes`: WriteFileDurable to
/// <path>.tmp, then RenameDurable over `path`. On failure the previous
/// file (if any) is untouched and no <path>.tmp is left behind.
Status WriteFileAtomic(const std::string& path, const uint8_t* data,
                       size_t size);

/// The first half of WriteFileAtomic: creates or truncates `path`, writes
/// `bytes` and fsyncs them. Removes the partial file on failure.
Status WriteFileDurable(const std::string& path, const uint8_t* data,
                        size_t size);

/// The second half: renames `from` over `to`, then fsyncs `to`'s parent
/// directory so the rename itself is durable. Removes `from` when the
/// rename fails.
Status RenameDurable(const std::string& from, const std::string& to);

/// Drops `path`'s pages from the page cache (posix_fadvise DONTNEED),
/// best-effort. Lets benchmarks measure cold-open latency without root.
void DropFileCache(const std::string& path);

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_STORAGE_MMAP_FILE_H_
