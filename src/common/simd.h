// Portable SIMD execution kernels with runtime dispatch.
//
// Query execution spends nearly all of its time in a handful of loop
// shapes over per-bin weight tables: plain reductions (Σw), fused triple
// reductions (Σw, Σw−, Σw+ in one pass), dot products (Σw·c), inclusive
// prefix scans (the MEDIAN CDF walk) and a few elementwise combiners
// (Eq. 28 AND/OR products, Eq. 29 weighting). This header defines those
// kernels as a function-pointer table (`KernelOps`) with three tiers
// selected once at startup: scalar (W = 1 lane), 2 lanes (SSE2 on x86-64,
// NEON on aarch64; both are baseline ISAs there) and AVX2 (4 lanes, its
// own translation unit compiled with -mavx2, gated by the CMake option
// PWH_DISABLE_AVX2 and a runtime CPUID check). All three are one set of
// kernel bodies written over W-lane vector types (simd_generic.h).
//
// ## Determinism contract
//
// Results are a pure function of (kernel table, inputs): the same build
// with the same `kernels` setting produces bit-identical results across
// runs, thread counts and call sites. Different tables may differ in the
// last ulp on reductions (lane reassociation); the engine's randomized
// equivalence suite bounds scalar-vs-SIMD disagreement at 1e-9 relative.
//
// ## Phase-aligned lane semantics
//
// Every reduction kernel takes a logical index range [begin, end) over
// arrays indexed from their base pointer, and assigns element t to lane
// accumulator t % W (W = lane count), combining lanes in a fixed order at
// the end. Head/tail elements that don't fill a vector are accumulated
// into their lane scalar-wise, in ascending t, so per-lane addition
// sequences are independent of how the range is blocked.
//
// This buys a load-bearing invariant: a kernel over [begin, end) returns
// the exact same double as the kernel over any wider range whose extra
// elements contribute exact zeros (adding +0.0 to a lane accumulator, or
// carrying +0.0 across prefix-scan blocks, is an identity). The test
// oracle (tests/oracle/) reduces full bin ranges [0, k) with zero weight
// outside the touched span while the engine reduces only [begin, end); the
// fastpath equivalence suite asserts their results are identical doubles,
// and phase alignment is what keeps that true under SIMD.
//
// Elementwise kernels (mul3 / or_mul3 / complement3 / norm_prob3 /
// weights_batch) need no phase: out[t] depends only on in[t], and every
// tier evaluates the same lane expression (min/max included), so they are
// bit-identical across tables, sign of zero included.
#ifndef PAIRWISEHIST_COMMON_SIMD_H_
#define PAIRWISEHIST_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pairwisehist {

/// Kernel selection knob (DbOptions::engine.kernels /
/// AqpEngineOptions::kernels).
enum class KernelMode {
  /// Widest ISA supported by this CPU and compiled into this binary,
  /// detected once at startup. The environment variable PWH_KERNELS
  /// (scalar | sse2 | neon | vec2 | avx2 | auto) overrides the detection
  /// for kAuto — that is how CI forces the fallback paths through the
  /// full test suite.
  kAuto = 0,
  /// Force the scalar kernels.
  kScalar = 1,
};

/// Returned by the find kernels when no element matches.
constexpr size_t kKernelNotFound = ~size_t{0};

/// One plan's slice of a batched Eq.-29 weighting call (KernelOps::
/// weights_batch): satisfaction probabilities in, weight lanes out, over
/// the touched bin range [begin, end) with the fully-covered run
/// descriptors coverage emitted (see query/exec_scratch.h ProbTable). The
/// pointers typically index rows of one plan-major SoA block so a whole
/// batch weights in a single kernel call.
struct WeightRow {
  const uint64_t* h = nullptr;  ///< grid bin counts (rows may differ)
  const double* p = nullptr;   ///< β per bin
  const double* pl = nullptr;  ///< β−
  const double* ph = nullptr;  ///< β+
  double* w = nullptr;         ///< out: w
  double* lo = nullptr;        ///< out: w−
  double* hi = nullptr;        ///< out: w+
  size_t begin = 0;            ///< touched bin range
  size_t end = 0;
  const uint32_t* runs = nullptr;  ///< 2*n_runs absolute bin indices
  size_t n_runs = 0;
};

/// One kernel implementation tier. All reduction kernels follow the
/// phase-aligned lane semantics described in the header comment.
struct KernelOps {
  const char* name;  ///< "scalar", "sse2", "neon", "vec2", "avx2"
  int lanes;         ///< W: elements per vector (1 for scalar)

  /// Σ x[t], t in [begin, end).
  double (*sum)(const double* x, size_t begin, size_t end);
  /// Fused {Σ a[t], Σ b[t], Σ c[t]} in one pass.
  void (*sum3)(const double* a, const double* b, const double* c,
               size_t begin, size_t end, double out[3]);
  /// Σ w[t]·x[t].
  double (*dot)(const double* w, const double* x, size_t begin, size_t end);
  /// Fused {Σ w[t], Σ w[t]·x[t], Σ w[t]·y[t]} in one pass.
  void (*dot3)(const double* w, const double* x, const double* y,
               size_t begin, size_t end, double out[3]);
  /// Fused {Σ w[t], Σ w[t]·x[t], Σ (w[t]·x[t])·x[t]} (first two moments).
  void (*moments)(const double* w, const double* x, size_t begin, size_t end,
                  double out[3]);
  /// Per-bin corner bounds of a weighted sum (Table 3 SUM):
  /// out[0] = Σ min(wlo·vlo, wlo·vhi, whi·vlo, whi·vhi),
  /// out[1] = Σ max(...), with min/max taking the second operand on ties
  /// and NaN (the minpd/maxpd rule) on every tier.
  void (*corner_bounds)(const double* wlo, const double* whi,
                        const double* vlo, const double* vhi, size_t begin,
                        size_t end, double out[2]);
  /// Inclusive prefix scan: out[t] = Σ x[begin..t] for t in [begin, end),
  /// computed blockwise on absolute W-aligned blocks (lanes outside
  /// [begin, end) count as exact zeros) so the scan values are identical
  /// for any enclosing zero-padded range.
  void (*prefix_sum)(const double* x, size_t begin, size_t end, double* out);
  /// Smallest t in [begin, end) with x[t] > threshold (kKernelNotFound if
  /// none). Exact comparisons: identical across tables.
  size_t (*find_first_gt)(const double* x, size_t begin, size_t end,
                          double threshold);
  /// Largest such t (kKernelNotFound if none).
  size_t (*find_last_gt)(const double* x, size_t begin, size_t end,
                         double threshold);

  // ---- Elementwise combiners (Eq. 28 / Eq. 29) --------------------------
  /// AND combine: ap[t] *= bp[t]; al[t] *= bl[t]; ah[t] *= bh[t].
  void (*mul3)(double* ap, double* al, double* ah, const double* bp,
               const double* bl, const double* bh, size_t begin, size_t end);
  /// OR complement-product step: ap[t] *= 1 - bp[t]; al[t] *= 1 - bh[t];
  /// ah[t] *= 1 - bl[t] (the complement swaps the bounds).
  void (*or_mul3)(double* ap, double* al, double* ah, const double* bp,
                  const double* bl, const double* bh, size_t begin,
                  size_t end);
  /// Final OR flip: p = 1 - p with lo/hi complemented and swapped.
  void (*complement3)(double* p, double* lo, double* hi, size_t begin,
                      size_t end);
  /// Conditional-probability normalization (Eq. 27): per bin, p =
  /// clamp(np/h, 0, 1), lo = clamp(nlo/h, 0, p), hi = clamp(nhi/h, p, 1);
  /// bins with h = 0 produce exact zeros. Source and destination may
  /// alias. Division dominates; the SIMD tiers divide W lanes at once
  /// with bit-identical results.
  void (*norm_prob3)(const uint64_t* h, const double* np, const double* nlo,
                     const double* nhi, double* p, double* lo, double* hi,
                     size_t begin, size_t end);

  // ---- Multi-row reductions (column-major cell prefixes) ----------------
  // The batched counterpart of a per-row prefix walk: one
  // call updates the accumulators of EVERY aggregation bin for one
  // coverage event, vectorizing across rows. `pre_b` / `pre_e` are two
  // boundary rows of a column-major cell prefix (PairView::AggPrefixCol),
  // so pre_e[t] - pre_b[t] is row t's exact integer cell mass over the
  // event's pred-bin range. Per-element accumulation order is preserved
  // (lanes never cross rows), so driving the events in the per-row walk's
  // order leaves every row's accumulator bit-identical to that walk (the
  // test oracle's ReduceRow, tests/oracle/).

  /// Fully-covered run: ap/al/ah[t] += double(pre_e[t] - pre_b[t]).
  void (*run_mass3)(const uint64_t* pre_b, const uint64_t* pre_e, double* ap,
                    double* al, double* ah, size_t begin, size_t end);
  /// Partial coverage bin: m = double(pre_e[t] - pre_b[t]); ap[t] += m·bp;
  /// al[t] += m·bl; ah[t] += m·bh (bp/bl/bh = that bin's β, β−, β+).
  void (*cell_axpy3)(const uint64_t* pre_b, const uint64_t* pre_e, double bp,
                     double bl, double bh, double* ap, double* al, double* ah,
                     size_t begin, size_t end);

  /// Batched Eq. 29 weighting: every row of a batch in one call. Per bin,
  /// w = h·p, lo = clamp(l, 0, h), hi = clamp(u, 0, h) with l = h·pl and
  /// u = h·ph. With widen != 0 and h > 0, l -= z·sqrt(h·b(1-b)·fpc) for
  /// b = clamp(l/h, 0, 1), and u widens upward likewise (z = two-sided 98%
  /// normal quantile, fpc = finite population correction). Fully-covered
  /// runs (β = β− = β+ = 1) collapse to w = lo = hi = h. Row r's output is
  /// bit-identical to weighting that row alone.
  void (*weights_batch)(const WeightRow* rows, size_t n_rows, double z,
                        double fpc, int widen);
};

/// Resolves a mode to a kernel table. Detection (CPUID + PWH_KERNELS
/// override) runs once; subsequent calls return the cached table.
const KernelOps& GetKernels(KernelMode mode);

/// The scalar table (always available; what kScalar resolves to).
const KernelOps& ScalarKernels();

/// Every table compiled into this binary and usable on this CPU, widest
/// last. Exposed for the exhaustive kernel tests and the kernel bench.
std::vector<const KernelOps*> SupportedKernels();

const char* KernelModeName(KernelMode mode);

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_COMMON_SIMD_H_
