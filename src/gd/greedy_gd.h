// GreedyGD: Generalized Deduplication compression with greedy bit selection.
//
// GD splits each data chunk (here: one pre-processed row) into a *base* (the
// most significant bits of each column) and a *deviation* (the remaining
// bits). Bases are deduplicated — each row stores only a base ID plus its
// deviation bits verbatim (Fig. 3 of the paper). Compression is achieved
// when few distinct bases cover many rows.
//
// The greedy part (following GreedyGD [8]) selects *how many* bits of each
// column belong to the base: starting from all-bits-in-base, it repeatedly
// demotes the least-significant base bit of whichever column most reduces
// the estimated compressed size on a row sample, until no demotion helps.
//
// The deduplicated bases double as the seed bin edges for PairwiseHist
// construction (Section 3), which is the paper's key compression↔AQP link.
#ifndef PAIRWISEHIST_GD_GREEDY_GD_H_
#define PAIRWISEHIST_GD_GREEDY_GD_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "gd/preprocess.h"
#include "storage/table.h"

namespace pairwisehist {

/// Tuning knobs for compression.
struct GdConfig {
  /// Rows sampled (strided) for the greedy bit-selection search.
  size_t greedy_sample_rows = 2048;
  /// Hard floor on deviation bits per column (0 = let the search decide).
  int min_deviation_bits = 0;
};

/// A GD-compressed table: deduplicated bases + per-row (base ID, deviation)
/// records, with bit-packed storage, O(1) random access and incremental
/// append.
class CompressedTable {
 public:
  /// Compresses a pre-processed table.
  static StatusOr<CompressedTable> Compress(const PreprocessedTable& pre,
                                            const GdConfig& config = {});

  size_t num_rows() const { return num_rows_; }
  size_t num_bases() const { return bases_.size() / std::max<size_t>(1, d_); }
  size_t num_columns() const { return d_; }

  /// Bits per column in the code domain.
  int total_bits(size_t col) const { return total_bits_[col]; }
  /// Bits of column `col` included in the base.
  int base_bits(size_t col) const { return base_bits_[col]; }
  /// Bits of column `col` stored verbatim per row.
  int deviation_bits(size_t col) const {
    return total_bits_[col] - base_bits_[col];
  }

  /// Appends more pre-processed rows (same schema). New bases are created
  /// as needed; the base-ID field width grows automatically.
  Status Append(const PreprocessedTable& more);

  /// Random access: reconstructs the codes of one row.
  StatusOr<std::vector<uint64_t>> GetRowCodes(size_t row) const;

  /// Reconstructs the full code matrix (column-major), i.e. lossless
  /// decompression in the code domain.
  PreprocessedTable DecompressCodes() const;

  /// Lossless decompression back to a raw Table. `dictionary_source`
  /// restores categorical strings (pass the original table or nullptr).
  Table Decompress(const Table* dictionary_source) const;

  /// Distinct base-aligned lower edges of `col` in the code domain, sorted.
  /// One value per distinct base prefix: (base_value << deviation_bits).
  /// These seed PairwiseHist's initial 1-d bin edges.
  std::vector<uint64_t> ColumnBaseValues(size_t col) const;

  /// The packed per-row base IDs and deviations: MSB-first bit streams of
  /// num_rows() fixed-width records, ceil(num_rows() x width / 8) bytes.
  std::span<const uint8_t> base_id_bytes() const;
  std::span<const uint8_t> deviation_bytes() const;

  /// Bytes of the bit-packed representation (bases + base IDs + deviations
  /// + header/transform metadata).
  size_t CompressedSizeBytes() const;

  const std::vector<ColumnTransform>& transforms() const {
    return transforms_;
  }

 private:
  CompressedTable() = default;

  uint64_t BaseKeyHash(const std::vector<uint64_t>& base_fields) const;
  /// Finds or inserts a base; returns its ID.
  uint32_t InternBase(const std::vector<uint64_t>& base_fields);
  void AppendRowRecord(uint32_t base_id,
                       const std::vector<uint64_t>& deviations);
  void RepackBaseIds(int new_bits);
  /// Calls emit(col, code) for every column of `row`.
  template <typename Emit>
  void DecodeRow(size_t row, Emit&& emit) const;

  size_t d_ = 0;
  size_t num_rows_ = 0;
  std::vector<ColumnTransform> transforms_;
  std::vector<int> total_bits_;
  std::vector<int> base_bits_;

  // Decoded bases, flattened num_bases x d (base field values).
  std::vector<uint64_t> bases_;
  // Dedup index: hash -> base ids with that hash.
  std::unordered_map<uint64_t, std::vector<uint32_t>> base_index_;

  // Bit-packed per-row base IDs (fixed base_id_bits_ per row).
  int base_id_bits_ = 1;
  std::vector<uint8_t> base_id_store_;
  // Bit-packed per-row deviations (fixed dev_total_bits_ per row).
  int dev_total_bits_ = 0;
  std::vector<uint8_t> deviation_store_;
};

/// End-to-end convenience: preprocess + compress.
StatusOr<CompressedTable> CompressTable(const Table& table,
                                        const GdConfig& config = {});

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_GD_GREEDY_GD_H_
