// Bump-pointer scratch arena for query execution.
//
// Execute(CompiledQuery) runs entirely out of one of these: every per-bin
// vector the pipeline needs (satisfaction probabilities, coverage,
// weightings, cross-column transfer buffers, aggregation temporaries) is
// carved out of pooled blocks with a bump pointer. Blocks are allocated on
// first use and retained across Reset(), so steady-state execution performs
// zero heap allocations. Blocks are never reallocated, so outstanding
// pointers stay valid until Reset().
//
// Every handed-out span is 64-byte aligned (one cache line, a full AVX-512
// vector): the SIMD execution kernels (common/simd.h) process elements at
// absolute-index lane phase, so aligned bases make their whole-vector body
// loads aligned. The bump offset advances in 64-byte units to keep the
// invariant for every allocation, not just the first of a block.
#ifndef PAIRWISEHIST_QUERY_EXEC_SCRATCH_H_
#define PAIRWISEHIST_QUERY_EXEC_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace pairwisehist {

class ExecArena {
 public:
  /// Alignment of every allocation, in bytes.
  static constexpr size_t kAlign = 64;

  /// Returns `n` uninitialized doubles, 64-byte aligned. Never invalidates
  /// earlier allocations; allocates a new block only when the retained
  /// ones are exhausted (first execution, or a larger query shape than
  /// seen before).
  double* Alloc(size_t n) { return AllocAs<double>(n); }

  /// Zero-filled variant.
  double* AllocZeroed(size_t n) {
    double* p = Alloc(n);
    std::fill(p, p + n, 0.0);
    return p;
  }

  /// `n` uninitialized uint32s (coverage run/segment descriptors),
  /// 64-byte aligned.
  uint32_t* AllocU32(size_t n) { return AllocAs<uint32_t>(n); }

  /// Releases every allocation but keeps the blocks for reuse.
  void Reset() {
    for (Block& b : blocks_) b.used = 0;
    cur_ = 0;
  }

  /// Ensures one retained block can hold at least `bytes` contiguously.
  /// Batch execution sizes the arena once from its plan count and grid
  /// width (see BatchArenaBytes) instead of growing block by block as the
  /// groups execute — after the first batch of a given shape, later
  /// batches run allocation-free. Never invalidates prior allocations.
  void Reserve(size_t bytes) {
    const size_t need = (bytes + kAlign - 1) & ~(kAlign - 1);
    for (const Block& b : blocks_) {
      if (b.cap - b.used >= need) return;  // free bytes, not total capacity
    }
    Block b;
    b.raw = std::make_unique<unsigned char[]>(need + kAlign);
    const size_t misalign =
        reinterpret_cast<uintptr_t>(b.raw.get()) & (kAlign - 1);
    b.base = b.raw.get() + (misalign ? kAlign - misalign : 0);
    b.cap = need;
    b.used = 0;
    blocks_.push_back(std::move(b));
  }

  size_t BytesReserved() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.cap;
    return total;
  }

 private:
  static constexpr size_t kMinBlockBytes = size_t{128} * 1024;

  struct Block {
    std::unique_ptr<unsigned char[]> raw;
    unsigned char* base = nullptr;  ///< 64-byte aligned into `raw`
    size_t cap = 0;                 ///< usable bytes from `base`
    size_t used = 0;                ///< bump offset (multiple of kAlign)
  };

  /// Carves `n` objects of trivial type T out of the byte blocks,
  /// formally starting their lifetimes (C++17 has no implicit object
  /// creation in byte storage; the trivial default-init placement-new
  /// loop compiles to nothing).
  template <typename T>
  T* AllocAs(size_t n) {
    static_assert(std::is_trivial_v<T>, "arena holds trivial types only");
    T* p = static_cast<T*>(AllocBytes(n * sizeof(T)));
    for (size_t i = 0; i < n; ++i) ::new (static_cast<void*>(p + i)) T;
    return p;
  }

  void* AllocBytes(size_t bytes) {
    // Round the reservation to the alignment so the next bump stays
    // aligned without tracking padding separately.
    const size_t need = (bytes + kAlign - 1) & ~(kAlign - 1);
    while (cur_ < blocks_.size()) {
      Block& b = blocks_[cur_];
      if (b.cap - b.used >= need) {
        void* p = b.base + b.used;
        b.used += need;
        return p;
      }
      ++cur_;
    }
    const size_t cap = std::max(need, kMinBlockBytes);
    Block b;
    b.raw = std::make_unique<unsigned char[]>(cap + kAlign);
    const size_t misalign =
        reinterpret_cast<uintptr_t>(b.raw.get()) & (kAlign - 1);
    b.base = b.raw.get() + (misalign ? kAlign - misalign : 0);
    b.cap = cap;
    b.used = need;
    blocks_.push_back(std::move(b));
    cur_ = blocks_.size() - 1;
    return blocks_.back().base;
  }

  std::vector<Block> blocks_;
  size_t cur_ = 0;
};

/// Per-bin satisfaction probabilities with bounds on some grid, plus the
/// fully-covered run descriptors coverage.cc emits (absolute [begin, end)
/// bin-index pairs where β = β− = β+ = 1): Eq. 29 weighting consumes runs
/// in bulk (w = w− = w+ = bin count) instead of per-bin arithmetic. Bins
/// outside [begin, end) are implicitly exactly zero.
struct ProbTable {
  double* p = nullptr;
  double* lo = nullptr;
  double* hi = nullptr;
  size_t begin = 0;
  size_t end = 0;
  const uint32_t* runs = nullptr;  ///< 2*n_runs absolute bin indices
  size_t n_runs = 0;
};

/// Per-bin weightings (w, w−, w+) over the aggregation grid. The three
/// lanes live in one 64-byte-aligned SoA block (each lane padded to a
/// whole number of cache lines) when arena-backed via Make; the test
/// oracle instead points the lanes at its own full-grid vectors.
struct WeightTable {
  double* w = nullptr;
  double* lo = nullptr;
  double* hi = nullptr;
  size_t begin = 0;
  size_t end = 0;

  /// Carves a single [w | lo | hi] block for `k` bins out of `arena`,
  /// every lane 64-byte aligned.
  static WeightTable Make(ExecArena& arena, size_t k) {
    constexpr size_t kLine = ExecArena::kAlign / sizeof(double);
    const size_t stride = (k + kLine - 1) & ~(kLine - 1);
    double* base = arena.Alloc(3 * stride);
    WeightTable wt;
    wt.w = base;
    wt.lo = base + stride;
    wt.hi = base + 2 * stride;
    return wt;
  }
};

/// Plan-major SoA weight tables for batch execution: one contiguous arena
/// block holding R row triples [w | lo | hi] over a k-bin grid, each lane
/// padded to whole cache lines. Row r is one plan pipeline's WeightTable;
/// the batched Eq.-29 weighting kernel (KernelOps::weights_batch) fills
/// every row in a single call.
class WeightTableBlock {
 public:
  WeightTableBlock() = default;
  WeightTableBlock(ExecArena& arena, size_t k, size_t rows) : rows_(rows) {
    constexpr size_t kLine = ExecArena::kAlign / sizeof(double);
    stride_ = (k + kLine - 1) & ~(kLine - 1);
    base_ = rows > 0 ? arena.Alloc(3 * stride_ * rows) : nullptr;
  }

  size_t rows() const { return rows_; }

  WeightTable Row(size_t r) const {
    WeightTable wt;
    double* base = base_ + 3 * stride_ * r;
    wt.w = base;
    wt.lo = base + stride_;
    wt.hi = base + 2 * stride_;
    return wt;
  }

 private:
  double* base_ = nullptr;
  size_t stride_ = 0;  ///< doubles per lane (cache-line padded k)
  size_t rows_ = 0;
};

/// Conservative arena-byte estimate for one batch execution: `rows`
/// distinct weight pipelines over a `grid_bins`-wide grid. Each pipeline
/// needs the SoA weight triple plus probability/coverage scratch of a few
/// grid widths; aggregation temporaries ride in the same budget. Used with
/// ExecArena::Reserve so a batch sizes its arena up front.
inline size_t BatchArenaBytes(size_t grid_bins, size_t rows) {
  const size_t per_row = 12 * grid_bins * sizeof(double);
  return per_row * (rows + 1) + ExecArena::kAlign;
}

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_QUERY_EXEC_SCRATCH_H_
