#include "gd/greedy_gd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace pairwisehist {

namespace {

// 64-bit mixer (SplitMix64 finalizer) for base-key hashing.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Hash contribution of column c holding base value v. XOR-combining these
// per-column contributions lets the greedy search update a row hash in O(1)
// when a single column's base width changes.
uint64_t ColumnContribution(size_t c, uint64_t v) {
  return Mix64(v * 0x9e3779b97f4a7c15ULL + c * 0xc2b2ae3d27d4eb4fULL + 1);
}

int BitsFor(uint64_t n) {  // bits to address n distinct values
  int bits = 1;
  while ((uint64_t{1} << bits) < n && bits < 63) ++bits;
  return bits;
}

// Open-addressing set for distinct-count estimation, reusable across
// candidate evaluations without reallocation.
class ScratchSet {
 public:
  explicit ScratchSet(size_t capacity_hint) {
    size_t cap = 64;
    while (cap < capacity_hint * 2) cap <<= 1;
    slots_.assign(cap, 0);
  }
  void Clear() { std::fill(slots_.begin(), slots_.end(), 0); count_ = 0; }
  void Insert(uint64_t h) {
    if (h == 0) h = 1;  // reserve 0 for "empty"
    size_t mask = slots_.size() - 1;
    size_t i = h & mask;
    while (slots_[i] != 0) {
      if (slots_[i] == h) return;
      i = (i + 1) & mask;
    }
    slots_[i] = h;
    ++count_;
    if (count_ * 2 > slots_.size()) Grow();
  }
  size_t count() const { return count_; }

 private:
  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, 0);
    count_ = 0;
    for (uint64_t h : old) {
      if (h) Insert(h);
    }
  }
  std::vector<uint64_t> slots_;
  size_t count_ = 0;
};

// The packed stores are MSB-first bit streams (bit 0 of the stream is the
// top bit of byte 0). Each field is read or written as one big-endian
// 64-bit word at its first byte, so the vectors carry kWordSlack zero bytes
// past the last byte of the stream; those are never part of the stream.
constexpr size_t kWordSlack = 8;

size_t StreamBytes(size_t bits) { return (bits + 7) / 8; }

uint64_t LoadWord(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::little) {
    w = __builtin_bswap64(w);
  }
  return w;
}

void StoreWord(uint8_t* p, uint64_t w) {
  if constexpr (std::endian::native == std::endian::little) {
    w = __builtin_bswap64(w);
  }
  std::memcpy(p, &w, sizeof(w));
}

// Writes the low `nbits` (0..64) bits of `value` at `bit_offset`, growing
// the store (zero-filled) as needed.
void PackBits(std::vector<uint8_t>* store, size_t bit_offset, uint64_t value,
              int nbits) {
  if (nbits == 0) return;
  const size_t byte_index = bit_offset >> 3;
  const int shift = static_cast<int>(bit_offset & 7);
  if (shift + nbits > 64) {
    // Straddles nine bytes: write the top half, then the low 32 bits.
    PackBits(store, bit_offset, value >> 32, nbits - 32);
    PackBits(store, bit_offset + nbits - 32, value, 32);
    return;
  }
  if (store->size() < byte_index + kWordSlack) {
    store->resize(byte_index + kWordSlack, 0);
  }
  const int low = 64 - shift - nbits;
  const uint64_t mask = (~uint64_t{0} >> (64 - nbits)) << low;
  uint8_t* p = store->data() + byte_index;
  StoreWord(p, (LoadWord(p) & ~mask) | ((value << low) & mask));
}

// Reads `nbits` (0..64) bits at `bit_offset` of a store written by
// PackBits.
uint64_t UnpackBits(const std::vector<uint8_t>& store, size_t bit_offset,
                    int nbits) {
  if (nbits == 0) return 0;
  const int shift = static_cast<int>(bit_offset & 7);
  if (shift + nbits > 64) {
    uint64_t high = UnpackBits(store, bit_offset, nbits - 32);
    return (high << 32) | UnpackBits(store, bit_offset + nbits - 32, 32);
  }
  return (LoadWord(store.data() + (bit_offset >> 3)) << shift) >>
         (64 - nbits);
}

}  // namespace

StatusOr<CompressedTable> CompressedTable::Compress(
    const PreprocessedTable& pre, const GdConfig& config) {
  const size_t d = pre.NumColumns();
  const size_t n = pre.NumRows();
  if (d == 0) return Status::InvalidArgument("Compress: no columns");

  CompressedTable ct;
  ct.d_ = d;
  ct.transforms_ = pre.transforms;
  ct.total_bits_.resize(d);
  for (size_t c = 0; c < d; ++c) {
    ct.total_bits_[c] = pre.transforms[c].bit_width;
  }
  ct.base_bits_ = ct.total_bits_;

  // ---- Greedy bit selection on a strided sample ----------------------
  // Grow the base from empty (all bits deviation, one universal base):
  // each step promotes the next most-significant unpromoted bit of
  // whichever column most reduces the estimated compressed size. Growing
  // in this direction sees an immediate strict gain whenever a bit is
  // shared across rows (one bit removed from every row record at the cost
  // of a few extra base bits), which is the GreedyGD selection behaviour;
  // the reverse direction (shrinking from all-base) stalls because single
  // demotions rarely merge bases.
  if (n > 0) {
    size_t sample_n = std::min(config.greedy_sample_rows, n);
    size_t stride = std::max<size_t>(1, n / sample_n);
    std::vector<size_t> sample_rows;
    sample_rows.reserve(sample_n);
    for (size_t r = 0; r < n && sample_rows.size() < sample_n; r += stride) {
      sample_rows.push_back(r);
    }
    sample_n = sample_rows.size();

    std::vector<int> base_bits(d, 0);
    // contrib[r*d + c]: hash contribution of column c at current widths.
    std::vector<uint64_t> contrib(sample_n * d);
    std::vector<uint64_t> row_hash(sample_n, 0);
    for (size_t s = 0; s < sample_n; ++s) {
      for (size_t c = 0; c < d; ++c) {
        contrib[s * d + c] = ColumnContribution(c, 0);  // empty base
        row_hash[s] ^= contrib[s * d + c];
      }
    }

    auto estimated_bits = [&](size_t n_bases, const std::vector<int>& bb) {
      size_t base_width = 0, dev_width = 0;
      for (size_t c = 0; c < d; ++c) {
        base_width += bb[c];
        dev_width += ct.total_bits_[c] - bb[c];
      }
      return static_cast<double>(n_bases) * base_width +
             static_cast<double>(sample_n) *
                 (dev_width + BitsFor(std::max<size_t>(2, n_bases)));
    };

    ScratchSet set(sample_n);
    double best_cost = estimated_bits(1, base_bits);

    const int max_steps = [&] {
      int total = 0;
      for (size_t c = 0; c < d; ++c) total += ct.total_bits_[c];
      return total;
    }();
    for (int step = 0; step < max_steps; ++step) {
      int best_col = -1;
      double best_candidate_cost = best_cost;
      for (size_t c = 0; c < d; ++c) {
        int max_base =
            std::max(0, ct.total_bits_[c] -
                            std::max(0, config.min_deviation_bits));
        if (base_bits[c] >= max_base) continue;
        int new_shift = ct.total_bits_[c] - (base_bits[c] + 1);
        std::vector<int> bb = base_bits;
        bb[c] += 1;
        set.Clear();
        for (size_t s = 0; s < sample_n; ++s) {
          uint64_t v = pre.codes[c][sample_rows[s]] >> new_shift;
          uint64_t h =
              row_hash[s] ^ contrib[s * d + c] ^ ColumnContribution(c, v);
          set.Insert(h);
        }
        double cost = estimated_bits(set.count(), bb);
        if (cost < best_candidate_cost) {
          best_candidate_cost = cost;
          best_col = static_cast<int>(c);
        }
      }
      if (best_col < 0) break;
      // Apply the winning promotion.
      base_bits[best_col] += 1;
      int shift = ct.total_bits_[best_col] - base_bits[best_col];
      for (size_t s = 0; s < sample_n; ++s) {
        uint64_t v = pre.codes[best_col][sample_rows[s]] >> shift;
        uint64_t nc = ColumnContribution(best_col, v);
        row_hash[s] ^= contrib[s * d + best_col] ^ nc;
        contrib[s * d + best_col] = nc;
      }
      best_cost = best_candidate_cost;
    }
    ct.base_bits_ = base_bits;
  }

  ct.dev_total_bits_ = 0;
  for (size_t c = 0; c < d; ++c) {
    ct.dev_total_bits_ += ct.total_bits_[c] - ct.base_bits_[c];
  }
  ct.base_id_bits_ = 8;  // grows on demand

  // ---- Full compression pass ------------------------------------------
  PH_RETURN_IF_ERROR(ct.Append(pre));
  return ct;
}

uint64_t CompressedTable::BaseKeyHash(
    const std::vector<uint64_t>& base_fields) const {
  uint64_t h = 0;
  for (size_t c = 0; c < d_; ++c) h ^= ColumnContribution(c, base_fields[c]);
  return h;
}

uint32_t CompressedTable::InternBase(
    const std::vector<uint64_t>& base_fields) {
  uint64_t h = BaseKeyHash(base_fields);
  auto it = base_index_.find(h);
  if (it != base_index_.end()) {
    for (uint32_t id : it->second) {
      bool equal = true;
      for (size_t c = 0; c < d_; ++c) {
        if (bases_[static_cast<size_t>(id) * d_ + c] != base_fields[c]) {
          equal = false;
          break;
        }
      }
      if (equal) return id;
    }
  }
  uint32_t id = static_cast<uint32_t>(num_bases());
  bases_.insert(bases_.end(), base_fields.begin(), base_fields.end());
  base_index_[h].push_back(id);
  return id;
}

void CompressedTable::AppendRowRecord(
    uint32_t base_id, const std::vector<uint64_t>& deviations) {
  // Grow the base-ID field if the new ID does not fit.
  int needed = BitsFor(static_cast<uint64_t>(base_id) + 1);
  if (needed > base_id_bits_) RepackBaseIds(needed + 2);

  PackBits(&base_id_store_, num_rows_ * base_id_bits_, base_id,
           base_id_bits_);
  size_t off = num_rows_ * dev_total_bits_;
  for (size_t c = 0; c < d_; ++c) {
    int dev = deviation_bits(c);
    if (dev == 0) continue;
    PackBits(&deviation_store_, off, deviations[c], dev);
    off += dev;
  }
  ++num_rows_;
}

void CompressedTable::RepackBaseIds(int new_bits) {
  std::vector<uint8_t> fresh(StreamBytes(num_rows_ * new_bits) + kWordSlack,
                             0);
  for (size_t r = 0; r < num_rows_; ++r) {
    uint64_t id = UnpackBits(base_id_store_, r * base_id_bits_,
                             base_id_bits_);
    PackBits(&fresh, r * new_bits, id, new_bits);
  }
  base_id_store_ = std::move(fresh);
  base_id_bits_ = new_bits;
}

Status CompressedTable::Append(const PreprocessedTable& more) {
  if (more.NumColumns() != d_) {
    return Status::InvalidArgument("Append: column count mismatch");
  }
  std::vector<uint64_t> base_fields(d_), deviations(d_);
  for (size_t r = 0; r < more.NumRows(); ++r) {
    for (size_t c = 0; c < d_; ++c) {
      uint64_t code = more.codes[c][r];
      int dev = deviation_bits(c);
      base_fields[c] = code >> dev;
      deviations[c] =
          dev == 0 ? 0 : (code & ((uint64_t{1} << dev) - 1));
    }
    uint32_t id = InternBase(base_fields);
    AppendRowRecord(id, deviations);
  }
  return Status::OK();
}

template <typename Emit>
void CompressedTable::DecodeRow(size_t row, Emit&& emit) const {
  const uint64_t* base =
      bases_.data() + UnpackBits(base_id_store_, row * base_id_bits_,
                                 base_id_bits_) * d_;
  size_t off = row * dev_total_bits_;
  for (size_t c = 0; c < d_; ++c) {
    const int dev = deviation_bits(c);
    emit(c, (base[c] << dev) | UnpackBits(deviation_store_, off, dev));
    off += dev;
  }
}

StatusOr<std::vector<uint64_t>> CompressedTable::GetRowCodes(
    size_t row) const {
  if (row >= num_rows_) return Status::OutOfRange("GetRowCodes: bad row");
  std::vector<uint64_t> codes(d_);
  DecodeRow(row, [&](size_t c, uint64_t code) { codes[c] = code; });
  return codes;
}

PreprocessedTable CompressedTable::DecompressCodes() const {
  PreprocessedTable pre;
  pre.name = "decompressed";
  pre.transforms = transforms_;
  pre.codes.assign(d_, std::vector<uint64_t>(num_rows_));
  for (size_t r = 0; r < num_rows_; ++r) {
    DecodeRow(r, [&](size_t c, uint64_t code) { pre.codes[c][r] = code; });
  }
  return pre;
}

Table CompressedTable::Decompress(const Table* dictionary_source) const {
  PreprocessedTable pre = DecompressCodes();
  return InverseTransform(pre, dictionary_source);
}

std::vector<uint64_t> CompressedTable::ColumnBaseValues(size_t col) const {
  std::vector<uint64_t> values;
  size_t nb = num_bases();
  values.reserve(nb);
  int dev = deviation_bits(col);
  for (size_t b = 0; b < nb; ++b) {
    values.push_back(bases_[b * d_ + col] << dev);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

std::span<const uint8_t> CompressedTable::base_id_bytes() const {
  return {base_id_store_.data(), StreamBytes(num_rows_ * base_id_bits_)};
}

std::span<const uint8_t> CompressedTable::deviation_bytes() const {
  return {deviation_store_.data(), StreamBytes(num_rows_ * dev_total_bits_)};
}

size_t CompressedTable::CompressedSizeBytes() const {
  size_t base_width_bits = 0;
  for (size_t c = 0; c < d_; ++c) base_width_bits += base_bits_[c];
  size_t bits = num_bases() * base_width_bits +
                num_rows_ * (static_cast<size_t>(base_id_bits_) +
                             static_cast<size_t>(dev_total_bits_));
  // Header: per-column transform metadata (name, widths, min, scale) plus
  // categorical rank permutations.
  size_t header = 32;
  for (const auto& tr : transforms_) {
    header += tr.name.size() + 24 + tr.rank_to_code.size() * 4;
  }
  return bits / 8 + header;
}

StatusOr<CompressedTable> CompressTable(const Table& table,
                                        const GdConfig& config) {
  PH_ASSIGN_OR_RETURN(PreprocessedTable pre, Preprocess(table));
  return CompressedTable::Compress(pre, config);
}

}  // namespace pairwisehist
