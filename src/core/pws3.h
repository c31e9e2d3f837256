// PWS3: the memory-mappable synopsis container.
//
// Layout (all little-endian):
//
//   [ 64-byte header ]
//   [ 64-byte-aligned raw array payloads ... ]        <- "data" region
//   [ u32 CRC32 per 64 KB data block ]                <- "crc" region (v2+)
//   [ ByteWriter metadata stream, CRC32-protected ]   <- "meta" region
//
//   header:  u32 magic "PWS3"   u32 version
//            u64 file_size      u64 data_end
//            u64 meta_size      u32 meta_crc32
//            u32 num_segments
//            u64 crc_off (== data_end)   u32 crc_count
//            u32 crc_table_crc32         [8 reserved zero bytes]
//
// The crc region holds one CRC32 per kCrcBlockSize (64 KB) block of the
// data region (the last block may be short), so corruption in the raw
// payloads is detectable without decoding. The table itself is covered
// by crc_table_crc32, and the meta stream begins at
// crc_off + 4 * crc_count. The reserved tail bytes must be zero so
// single-bit flips anywhere in the header are rejected.
//
// Every numeric array of every segment is stored as a raw little-endian
// payload at a 64-byte-aligned offset; the metadata stream holds
// everything small (params, transforms, pruning ranges) plus one
// {offset, count} reference per array, in fixed traversal order:
//
//   per histogram dim (1-d, then each pair's dim_i and dim_j):
//     edges, counts, v_min, v_max, unique, parent, count_prefix,
//     centre_mid, centre_lo, centre_hi
//   per pair, after its two dims:
//     cell_colpre_i, cell_colpre_j, nonnull_frac_i, nonnull_frac_j
//
// The execution indexes (count prefixes, centre caches, the column-major
// cell prefixes — the only form the cells take — and non-null fractions)
// are stored verbatim, so nothing is recomputed at open.
//
// Older versions still open:
//   v2 has the same container but stores three more arrays per pair
//      before cell_colpre_i: the row-major cells and the two row-major
//      cell prefixes. They are validated like any array, so they stay
//      inside the segment's integrity span, and then dropped.
//   v1 has v2's per-pair arrays but no crc region (meta at data_end,
//      reserved bytes unchecked); each v1 open bumps
//      Pws3LegacyOpenCount().
//
// Opening is therefore O(metadata): validate the header, CRC-check and
// parse the meta stream, and bind each array as a std::span view straight
// into the mapping — no per-row decode, no prefix-sum recomputation, no
// allocation proportional to synopsis size. The page cache backs the
// mapping, so N processes opening the same file share one physical copy.
//
// This trades disk space for startup: the compact Fig.-6 PWS2 encoding
// (SynopsisSet::Serialize) remains the paper's storage-efficiency format.
#ifndef PAIRWISEHIST_CORE_PWS3_H_
#define PAIRWISEHIST_CORE_PWS3_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/synopsis_set.h"
#include "storage/mmap_file.h"

namespace pairwisehist {

/// Friend of PairwiseHist and SynopsisSet: encodes/decodes their private
/// representation to/from the PWS3 image.
class Pws3Codec {
 public:
  static constexpr uint32_t kMagic = 0x50575333;  // "PWS3"
  static constexpr uint32_t kVersion = 3;
  static constexpr size_t kHeaderSize = 64;
  static constexpr size_t kAlign = 64;
  /// Payload checksum granularity: one CRC32 per 64 KB data block.
  static constexpr size_t kCrcBlockSize = 64 * 1024;

  /// Builds the complete PWS3 image in memory. Requires every segment to
  /// carry its execution indexes (true for all public construction paths,
  /// which end in FinishExecIndex).
  static std::vector<uint8_t> Encode(const SynopsisSet& set);

  /// Validates and decodes a PWS3 image. With `backing` non-null (the
  /// zero-copy mmap path) every array binds as a borrowed span into
  /// `bytes`, and each segment holds the backing handle so the mapping
  /// outlives the set. With `backing` null (a heap blob of arbitrary
  /// alignment) arrays are memcpy'd into owned vectors.
  static StatusOr<SynopsisSet> Decode(
      std::span<const uint8_t> bytes,
      std::shared_ptr<const MappedFile> backing);
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_CORE_PWS3_H_
