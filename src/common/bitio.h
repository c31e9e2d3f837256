// Bit-granular writer/reader over a byte buffer.
//
// Used by the PairwiseHist storage encoding (dense bin counts at ℓh bits
// per count; Golomb codes). GreedyGD packs its fixed-width records with its
// own word-at-a-time helpers in the same MSB-first bit order.
// Bits are written MSB-first within each byte so that the encoded stream is
// byte-order independent and prefix codes decode naturally.
#ifndef PAIRWISEHIST_COMMON_BITIO_H_
#define PAIRWISEHIST_COMMON_BITIO_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/status.h"

namespace pairwisehist {

/// Appends bit fields to a growable byte buffer (MSB-first).
class BitWriter {
 public:
  BitWriter() = default;

  /// Writes the low `nbits` bits of `value` (0 <= nbits <= 64),
  /// most-significant first.
  void WriteBits(uint64_t value, int nbits);

  /// Writes a single bit.
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Writes `count` consecutive one-bits followed by a zero (unary code).
  void WriteUnary(uint64_t count);

  /// Number of bits written so far.
  size_t bit_count() const { return bit_count_; }

  /// Pads to a byte boundary with zero bits and returns the buffer.
  std::vector<uint8_t> Finish();

  /// Read-only view of the (possibly unpadded) bytes written so far.
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
};

/// Reads bit fields from a byte buffer written by BitWriter.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size_bytes)
      : data_(data), size_bits_(size_bytes * 8) {}
  explicit BitReader(const std::vector<uint8_t>& data)
      : BitReader(data.data(), data.size()) {}

  /// Reads `nbits` bits (0 <= nbits <= 64) into the low bits of the result.
  StatusOr<uint64_t> ReadBits(int nbits);

  /// Reads a unary code: the number of one-bits before the next zero.
  StatusOr<uint64_t> ReadUnary();

  /// Bits remaining.
  size_t remaining_bits() const { return size_bits_ - pos_; }
  size_t position_bits() const { return pos_; }

  /// Skips forward; fails if past the end.
  Status Skip(size_t nbits);

 private:
  const uint8_t* data_;
  size_t size_bits_;
  size_t pos_ = 0;
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_COMMON_BITIO_H_
