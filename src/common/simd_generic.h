// The kernel bodies of every tier (see simd.h for the semantics contract),
// written once over W-lane values and instantiated per tier: W = 1 (scalar
// table) and W = 2 (SSE2/NEON) in simd.cc, W = 4 in simd_avx2.cc, which is
// compiled with -mavx2.
//
// A W-lane value is a GCC/Clang vector of W doubles (`vector_size`), or a
// plain double for W = 1 (GCC 12 compiles one-lane vector types to much
// slower scalar reductions). Arithmetic, comparisons and `?:` act lane by
// lane on both, so one body serves every tier, and the translation unit's
// compiler flags decide which instructions it becomes. Every tier shares
// these lane semantics:
//  * min/max are `a < b ? a : b` and `a > b ? a : b` (the minpd/maxpd
//    rule: the second operand on ties and NaN);
//  * u64 counts convert by OR-ing in the exponent of 2^52 and subtracting
//    2^52, which is exact below 2^52 (counts are row counts, far below);
//  * division and sqrt are IEEE-exact per lane.
// Elementwise kernels evaluate the same expression on a vector for each
// full block and on a double for each tail element, so their outputs are
// bit-identical across tiers, sign of zero included. Reductions keep
// element t in lane t % W (phase alignment, simd.h), so their results
// depend on W only.
//
// Everything here has internal linkage (unnamed namespace): the header is
// included by one translation unit compiled with -mavx2 and one compiled
// without, and a weak symbol defined in both could let the linker hand the
// AVX2 copy to the baseline tiers.
#ifndef PAIRWISEHIST_COMMON_SIMD_GENERIC_H_
#define PAIRWISEHIST_COMMON_SIMD_GENERIC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/simd.h"

namespace pairwisehist {
namespace simd_detail {
namespace {

/// W-lane value types: D holds W doubles, U holds W uint64 counts.
template <int W>
struct Lanes;
template <>
struct Lanes<1> {
  using D = double;
  using U = uint64_t;
};
template <>
struct Lanes<2> {
  typedef double D __attribute__((vector_size(16)));
  typedef uint64_t U __attribute__((vector_size(16)));
};
template <>
struct Lanes<4> {
  typedef double D __attribute__((vector_size(32)));
  typedef uint64_t U __attribute__((vector_size(32)));
};

// Lane helpers over T = double (one element) or a vector of doubles.
template <class T>
using CountsOf = typename Lanes<sizeof(T) / sizeof(double)>::U;

template <class T>
T Load(const double* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class T>
void Store(double* p, T v) {
  std::memcpy(p, &v, sizeof v);
}

template <class T>
T Splat(double x) {
  return T{} + x;
}

template <class T>
T CountsToDouble(CountsOf<T> u) {
  return __builtin_bit_cast(T, u | uint64_t{0x4330000000000000}) - 0x1p52;
}

template <class T>
T LoadCounts(const uint64_t* h) {
  CountsOf<T> u;
  std::memcpy(&u, h, sizeof u);
  return CountsToDouble<T>(u);
}

/// Exact integer difference pre_e - pre_b of two prefix rows, as doubles.
template <class T>
T LoadMass(const uint64_t* pre_b, const uint64_t* pre_e) {
  CountsOf<T> b, e;
  std::memcpy(&b, pre_b, sizeof b);
  std::memcpy(&e, pre_e, sizeof e);
  return CountsToDouble<T>(e - b);
}

template <class T>
T Min(T a, T b) {
  return a < b ? a : b;
}

template <class T>
T Max(T a, T b) {
  return a > b ? a : b;
}

/// Per-lane IEEE sqrt. The loop becomes one vector sqrt because the
/// kernels compile with -fno-math-errno (CMakeLists.txt).
template <class T>
T Sqrt(T x) {
  if constexpr (sizeof(T) == sizeof(double)) {
    return __builtin_sqrt(x);
  } else {
    for (size_t j = 0; j < sizeof(T) / sizeof(double); ++j) {
      x[j] = __builtin_sqrt(x[j]);
    }
    return x;
  }
}

template <int W>
struct Kernels {
  using V = typename Lanes<W>::D;

  /// Fixed lane-combine order: pairwise for W = 4 ((l0+l1) + (l2+l3)),
  /// left to right otherwise.
  static double Combine(const double* l) {
    if constexpr (W == 4) return (l[0] + l[1]) + (l[2] + l[3]);
    double s = l[0];
    for (int j = 1; j < W; ++j) s += l[j];
    return s;
  }

  /// Phase-aligned reduction into N sums. `step(acc, t)` adds element t
  /// (T = double) or the block [t, t + W) (T = V) to acc[0..N). Elements
  /// before the first and after the last absolute W-boundary go to their
  /// lane one at a time, in ascending t.
  template <int N, class Step>
  static void Reduce(size_t begin, size_t end, double* out, Step step) {
    // Zeroed by whole-vector stores: the loads below then forward from
    // one store each instead of stalling on several narrower ones.
    alignas(V) double lane[N][W];
    for (int n = 0; n < N; ++n) Store(lane[n], V{});
    auto one = [&](size_t t) {
      double acc[N];
      for (int n = 0; n < N; ++n) acc[n] = lane[n][t % W];
      step(acc, t);
      for (int n = 0; n < N; ++n) lane[n][t % W] = acc[n];
    };
    size_t t = begin;
    for (; t < end && t % W != 0; ++t) one(t);
    if (t + W <= end) {
      V acc[N];
      for (int n = 0; n < N; ++n) acc[n] = Load<V>(lane[n]);
      for (; t + W <= end; t += W) step(acc, t);
      for (int n = 0; n < N; ++n) Store(lane[n], acc[n]);
    }
    for (; t < end; ++t) one(t);
    for (int n = 0; n < N; ++n) out[n] = Combine(lane[n]);
  }

  /// Elementwise driver: `body.operator()<T>(t)` handles the block
  /// [t, t + W) as T = V, then each tail element as T = double.
  template <class Body>
  static void ForEach(size_t begin, size_t end, Body body) {
    size_t t = begin;
    if constexpr (W > 1) {
      for (; t + W <= end; t += W) body.template operator()<V>(t);
      // At most W - 1 elements remain; saying so keeps the compiler from
      // vectorizing the tail again behind run-time alias checks.
      for (int j = 1; j < W && t < end; ++j, ++t) {
        body.template operator()<double>(t);
      }
    } else {
      for (; t < end; ++t) body.template operator()<double>(t);
    }
  }

  static double Sum(const double* x, size_t begin, size_t end) {
    double out;
    Reduce<1>(begin, end, &out, [&]<class T>(T* acc, size_t t) {
      acc[0] += Load<T>(x + t);
    });
    return out;
  }

  static void Sum3(const double* a, const double* b, const double* c,
                   size_t begin, size_t end, double out[3]) {
    Reduce<3>(begin, end, out, [&]<class T>(T* acc, size_t t) {
      acc[0] += Load<T>(a + t);
      acc[1] += Load<T>(b + t);
      acc[2] += Load<T>(c + t);
    });
  }

  static double Dot(const double* w, const double* x, size_t begin,
                    size_t end) {
    double out;
    Reduce<1>(begin, end, &out, [&]<class T>(T* acc, size_t t) {
      acc[0] += Load<T>(w + t) * Load<T>(x + t);
    });
    return out;
  }

  static void Dot3(const double* w, const double* x, const double* y,
                   size_t begin, size_t end, double out[3]) {
    Reduce<3>(begin, end, out, [&]<class T>(T* acc, size_t t) {
      const T lw = Load<T>(w + t);
      acc[0] += lw;
      acc[1] += lw * Load<T>(x + t);
      acc[2] += lw * Load<T>(y + t);
    });
  }

  static void Moments(const double* w, const double* x, size_t begin,
                      size_t end, double out[3]) {
    Reduce<3>(begin, end, out, [&]<class T>(T* acc, size_t t) {
      const T lw = Load<T>(w + t);
      const T lx = Load<T>(x + t);
      const T wx = lw * lx;
      acc[0] += lw;
      acc[1] += wx;
      acc[2] += wx * lx;
    });
  }

  static void CornerBounds(const double* wlo, const double* whi,
                           const double* vlo, const double* vhi, size_t begin,
                           size_t end, double out[2]) {
    Reduce<2>(begin, end, out, [&]<class T>(T* acc, size_t t) {
      const T wl = Load<T>(wlo + t), wh = Load<T>(whi + t);
      const T vl = Load<T>(vlo + t), vh = Load<T>(vhi + t);
      const T p1 = wl * vl, p2 = wl * vh, p3 = wh * vl, p4 = wh * vh;
      acc[0] += Min(Min(Min(p1, p2), p3), p4);
      acc[1] += Max(Max(Max(p1, p2), p3), p4);
    });
  }

  /// In-block inclusive scan by Hillis–Steele doubling: lane j becomes
  /// v[0] + ... + v[j], adding the block shifted by 1, 2, ... lanes.
  static V ScanBlock(V v) {
    const V zero{};
    if constexpr (W == 2) v += __builtin_shufflevector(v, zero, 2, 0);
    if constexpr (W == 4) {
      v += __builtin_shufflevector(v, zero, 4, 0, 1, 2);
      v += __builtin_shufflevector(v, zero, 4, 5, 0, 1);
    }
    return v;
  }

  /// Blocks are absolute [block, block + W); lanes outside [begin, end)
  /// scan as zeros and are not written.
  static void PrefixSum(const double* x, size_t begin, size_t end,
                        double* out) {
    double carry = 0.0;
    if constexpr (W == 1) {
      for (size_t t = begin; t < end; ++t) {
        carry += x[t];
        out[t] = carry;
      }
    } else {
      auto partial = [&](size_t block) {
        double l[W];
        for (int j = 0; j < W; ++j) {
          l[j] = block + j >= begin && block + j < end ? x[block + j] : 0.0;
        }
        const V v = ScanBlock(Load<V>(l));
        const V o = carry + v;
        for (int j = 0; j < W; ++j) {
          if (block + j >= begin && block + j < end) out[block + j] = o[j];
        }
        carry = carry + v[W - 1];
      };
      size_t block = begin - begin % W;
      if (block < begin) {
        partial(block);
        block += W;
      }
      for (; block + W <= end; block += W) {
        const V v = ScanBlock(Load<V>(x + block));
        Store(out + block, carry + v);
        carry = carry + v[W - 1];
      }
      if (block < end) partial(block);
    }
  }

  /// True if any lane of the block x[t, t + W) exceeds the threshold.
  static bool AnyGt(const double* x, size_t t, double threshold) {
    auto m = Load<V>(x + t) > threshold;
    if constexpr (W == 4) m |= __builtin_shufflevector(m, m, 2, 3, 2, 3);
    return (m[0] | m[1]) != 0;
  }

  static size_t FindFirstGt(const double* x, size_t begin, size_t end,
                            double threshold) {
    size_t t = begin;
    if constexpr (W > 1) {
      while (t + W <= end && !AnyGt(x, t, threshold)) t += W;
    }
    for (; t < end; ++t) {
      if (x[t] > threshold) return t;
    }
    return kKernelNotFound;
  }

  static size_t FindLastGt(const double* x, size_t begin, size_t end,
                           double threshold) {
    size_t t = end;
    if constexpr (W > 1) {
      while (t >= begin + W && !AnyGt(x, t - W, threshold)) t -= W;
    }
    while (t-- > begin) {
      if (x[t] > threshold) return t;
    }
    return kKernelNotFound;
  }

  static void Mul3(double* ap, double* al, double* ah, const double* bp,
                   const double* bl, const double* bh, size_t begin,
                   size_t end) {
    ForEach(begin, end, [&]<class T>(size_t t) {
      Store(ap + t, Load<T>(ap + t) * Load<T>(bp + t));
      Store(al + t, Load<T>(al + t) * Load<T>(bl + t));
      Store(ah + t, Load<T>(ah + t) * Load<T>(bh + t));
    });
  }

  static void OrMul3(double* ap, double* al, double* ah, const double* bp,
                     const double* bl, const double* bh, size_t begin,
                     size_t end) {
    ForEach(begin, end, [&]<class T>(size_t t) {
      Store(ap + t, Load<T>(ap + t) * (1.0 - Load<T>(bp + t)));
      // The complement swaps the bounds.
      Store(al + t, Load<T>(al + t) * (1.0 - Load<T>(bh + t)));
      Store(ah + t, Load<T>(ah + t) * (1.0 - Load<T>(bl + t)));
    });
  }

  static void Complement3(double* p, double* lo, double* hi, size_t begin,
                          size_t end) {
    ForEach(begin, end, [&]<class T>(size_t t) {
      const T np = 1.0 - Load<T>(p + t);
      const T nlo = 1.0 - Load<T>(hi + t);
      const T nhi = 1.0 - Load<T>(lo + t);
      Store(p + t, np);
      Store(lo + t, nlo);
      Store(hi + t, nhi);
    });
  }

  static void NormProb3(const uint64_t* h, const double* np,
                        const double* nlo, const double* nhi, double* p,
                        double* lo, double* hi, size_t begin, size_t end) {
    ForEach(begin, end, [&]<class T>(size_t t) {
      const T hd = LoadCounts<T>(h + t);
      const T one = Splat<T>(1.0);
      const T vp = Min(Max(Load<T>(np + t) / hd, T{}), one);
      const T vlo = Min(Max(Load<T>(nlo + t) / hd, T{}), vp);
      const T vhi = Min(Max(Load<T>(nhi + t) / hd, vp), one);
      // Bins with h = 0 divided by zero above; they produce exact zeros.
      const auto nonempty = hd > 0.0;
      Store(p + t, nonempty ? vp : T{});
      Store(lo + t, nonempty ? vlo : T{});
      Store(hi + t, nonempty ? vhi : T{});
    });
  }

  static void RunMass3(const uint64_t* pre_b, const uint64_t* pre_e,
                       double* ap, double* al, double* ah, size_t begin,
                       size_t end) {
    ForEach(begin, end, [&]<class T>(size_t t) {
      const T m = LoadMass<T>(pre_b + t, pre_e + t);
      Store(ap + t, Load<T>(ap + t) + m);
      Store(al + t, Load<T>(al + t) + m);
      Store(ah + t, Load<T>(ah + t) + m);
    });
  }

  static void CellAxpy3(const uint64_t* pre_b, const uint64_t* pre_e,
                        double bp, double bl, double bh, double* ap,
                        double* al, double* ah, size_t begin, size_t end) {
    ForEach(begin, end, [&]<class T>(size_t t) {
      const T m = LoadMass<T>(pre_b + t, pre_e + t);
      Store(ap + t, Load<T>(ap + t) + m * bp);
      Store(al + t, Load<T>(al + t) + m * bl);
      Store(ah + t, Load<T>(ah + t) + m * bh);
    });
  }

  /// Eq. 29 weights of bins [begin, end) of one row: w = h·p, lo/hi =
  /// h·β∓ clamped to [0, h], widened first by z·sqrt(h·β(1−β)·fpc) under
  /// sampling (kWiden).
  template <bool kWiden>
  static void Weigh(const WeightRow& r, size_t begin, size_t end, double z,
                    double fpc) {
    ForEach(begin, end, [&]<class T>(size_t t) {
      const T hd = LoadCounts<T>(r.h + t);
      Store(r.w + t, hd * Load<T>(r.p + t));
      T l = hd * Load<T>(r.pl + t);
      T u = hd * Load<T>(r.ph + t);
      if constexpr (kWiden) {
        // Bins with h = 0 divide 0/0 here; the select keeps their l, u.
        const T one = Splat<T>(1.0);
        const T bl = Min(Max(l / hd, T{}), one);
        const T bh = Min(Max(u / hd, T{}), one);
        const T tl = z * Sqrt(hd * bl * (1.0 - bl) * fpc);
        const T th = z * Sqrt(hd * bh * (1.0 - bh) * fpc);
        l = hd > 0.0 ? l - tl : l;
        u = hd > 0.0 ? u + th : u;
      }
      Store(r.lo + t, Min(Max(l, T{}), hd));
      Store(r.hi + t, Min(Max(u, T{}), hd));
    });
  }

  /// A fully-covered run: β = β− = β+ = 1 makes Eq. 29 collapse to the
  /// bin count, with or without widening (the variance term is zero).
  static void WeighRun(const WeightRow& r, size_t begin, size_t end) {
    ForEach(begin, end, [&]<class T>(size_t t) {
      const T hd = LoadCounts<T>(r.h + t);
      Store(r.w + t, hd);
      Store(r.lo + t, hd);
      Store(r.hi + t, hd);
    });
  }

  template <bool kWiden>
  static void WeighRows(const WeightRow* rows, size_t n_rows, double z,
                        double fpc) {
    for (size_t r = 0; r < n_rows; ++r) {
      // A copy: stores through the output pointers cannot alias it, so its
      // fields stay in registers across the loops.
      const WeightRow row = rows[r];
      size_t t = row.begin;
      for (size_t i = 0; i < row.n_runs; ++i) {
        const size_t f0 = row.runs[2 * i];
        const size_t f1 = row.runs[2 * i + 1];
        Weigh<kWiden>(row, t, f0, z, fpc);
        WeighRun(row, f0, f1);
        t = f1;
      }
      Weigh<kWiden>(row, t, row.end, z, fpc);
    }
  }

  static void WeightsBatch(const WeightRow* rows, size_t n_rows, double z,
                           double fpc, int widen) {
    if (widen != 0) {
      WeighRows<true>(rows, n_rows, z, fpc);
    } else {
      WeighRows<false>(rows, n_rows, z, fpc);
    }
  }
};

/// Fills a KernelOps table from one instantiation.
template <int W>
constexpr KernelOps MakeTable(const char* name) {
  KernelOps ops{};
  ops.name = name;
  ops.lanes = W;
  ops.sum = &Kernels<W>::Sum;
  ops.sum3 = &Kernels<W>::Sum3;
  ops.dot = &Kernels<W>::Dot;
  ops.dot3 = &Kernels<W>::Dot3;
  ops.moments = &Kernels<W>::Moments;
  ops.corner_bounds = &Kernels<W>::CornerBounds;
  ops.prefix_sum = &Kernels<W>::PrefixSum;
  ops.find_first_gt = &Kernels<W>::FindFirstGt;
  ops.find_last_gt = &Kernels<W>::FindLastGt;
  ops.mul3 = &Kernels<W>::Mul3;
  ops.or_mul3 = &Kernels<W>::OrMul3;
  ops.complement3 = &Kernels<W>::Complement3;
  ops.norm_prob3 = &Kernels<W>::NormProb3;
  ops.run_mass3 = &Kernels<W>::RunMass3;
  ops.cell_axpy3 = &Kernels<W>::CellAxpy3;
  ops.weights_batch = &Kernels<W>::WeightsBatch;
  return ops;
}

}  // namespace
}  // namespace simd_detail
}  // namespace pairwisehist

#endif  // PAIRWISEHIST_COMMON_SIMD_GENERIC_H_
