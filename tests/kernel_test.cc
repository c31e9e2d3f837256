// SIMD kernel layer validation (common/simd.h):
//  * exhaustive small-n edge cases (0, 1, lane-1, lane, lane+1, unaligned
//    begins and tails) for every compiled kernel tier against scalar,
//  * the phase-aligned zero-padding invariant that keeps the fast path
//    bit-equal to the reference path (a reduction over [b, e) must equal
//    the same reduction over a wider zero-padded range, exactly),
//  * scalar-vs-dispatched agreement (<= 1e-9 relative) over >= 1000
//    randomized queries reusing the fastpath_test harness,
//  * bit-identical repeat-run determinism per kernel setting, including
//    across exec_threads on a segmented Db,
//  * the 64-byte alignment guarantee of every ExecArena span.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/pairwise_hist.h"
#include "datagen/datasets.h"
#include "query/engine.h"
#include "query/exec_scratch.h"

namespace pairwisehist {
namespace {

// ---------------------------------------------------------------------------
// Arena alignment.

TEST(ExecArenaAlignment, EverySpanIs64ByteAligned) {
  ExecArena arena;
  std::vector<void*> ptrs;
  const size_t sizes[] = {1, 3, 7, 8, 9, 13, 64, 100, 1000, 16384, 5};
  for (size_t n : sizes) {
    ptrs.push_back(arena.Alloc(n));
    ptrs.push_back(arena.AllocZeroed(n));
    ptrs.push_back(arena.AllocU32(n));
  }
  for (void* p : ptrs) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % ExecArena::kAlign, 0u);
  }
}

TEST(ExecArenaAlignment, ResetReplaysIdenticalPlacement) {
  // Steady-state reuse must hand out the same spans for the same request
  // sequence (this is what keeps repeated executions allocation-free and
  // bit-deterministic).
  ExecArena arena;
  const size_t sizes[] = {17, 4096, 3, 257, 64};
  std::vector<void*> first;
  for (size_t n : sizes) first.push_back(arena.Alloc(n));
  arena.Reset();
  for (size_t i = 0; i < std::size(sizes); ++i) {
    EXPECT_EQ(arena.Alloc(sizes[i]), first[i]) << "allocation " << i;
  }
}

TEST(ExecArenaAlignment, WeightTableLanesAligned) {
  ExecArena arena;
  for (size_t k : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
    WeightTable wt = WeightTable::Make(arena, k);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(wt.w) % ExecArena::kAlign, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(wt.lo) % ExecArena::kAlign, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(wt.hi) % ExecArena::kAlign, 0u);
    // Lanes must not overlap for k bins.
    EXPECT_GE(wt.lo, wt.w + k);
    EXPECT_GE(wt.hi, wt.lo + k);
  }
}

// ---------------------------------------------------------------------------
// Kernel edge cases: every tier vs scalar on every small shape.

constexpr double kRelTol = 1e-9;

bool Close(double a, double b, double tol = kRelTol) {
  if (std::isnan(a) && std::isnan(b)) return true;
  double diff = std::fabs(a - b);
  return diff <= tol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

struct RandomArrays {
  std::vector<double> a, b, c, d;
  std::vector<uint64_t> h;
  explicit RandomArrays(size_t n, uint64_t seed) {
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      a.push_back(rng.Uniform(-2, 5));
      b.push_back(rng.Uniform(0, 3));
      c.push_back(rng.Uniform(-4, 4));
      d.push_back(rng.Uniform(-1, 6));
      h.push_back(rng.UniformInt(10000));
    }
  }
};

// Inputs where the tiers used to disagree: -0.0 values, empty bins
// (h = 0) and the largest count the u64 -> f64 conversion keeps exact.
void AddSpecialValues(RandomArrays* arr) {
  for (size_t i = 0; i < arr->a.size(); ++i) {
    if (i % 7 == 3) arr->a[i] = arr->c[i] = arr->d[i] = -0.0;
    if (i % 5 == 1) arr->h[i] = 0;
    if (i % 11 == 6) arr->h[i] = (uint64_t{1} << 52) - 1;
  }
}

bool SameBits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

TEST(KernelEdgeCases, AllTiersMatchScalarOnSmallShapes) {
  const KernelOps& sc = ScalarKernels();
  const size_t kMaxN = 70;
  RandomArrays arr(kMaxN + 8, 1234);
  AddSpecialValues(&arr);
  const size_t kLen = arr.a.size();
  for (const KernelOps* ks : SupportedKernels()) {
    SCOPED_TRACE(ks->name);
    const size_t sizes[] = {0,  1,  2,  3,  4,  5,  7,  8,
                            9,  15, 16, 17, 31, 32, 33, 65};
    const size_t begins[] = {0, 1, 2, 3, 5, 8};
    for (size_t n : sizes) {
      for (size_t b : begins) {
        size_t e = b + n;
        ASSERT_LE(e, kLen);
        SCOPED_TRACE("begin=" + std::to_string(b) +
                     " n=" + std::to_string(n));
        EXPECT_TRUE(Close(ks->sum(arr.a.data(), b, e),
                          sc.sum(arr.a.data(), b, e)));
        double s3[3], r3[3];
        ks->sum3(arr.a.data(), arr.b.data(), arr.c.data(), b, e, s3);
        sc.sum3(arr.a.data(), arr.b.data(), arr.c.data(), b, e, r3);
        for (int i = 0; i < 3; ++i) EXPECT_TRUE(Close(s3[i], r3[i]));
        EXPECT_TRUE(Close(ks->dot(arr.b.data(), arr.c.data(), b, e),
                          sc.dot(arr.b.data(), arr.c.data(), b, e)));
        ks->dot3(arr.b.data(), arr.c.data(), arr.d.data(), b, e, s3);
        sc.dot3(arr.b.data(), arr.c.data(), arr.d.data(), b, e, r3);
        for (int i = 0; i < 3; ++i) EXPECT_TRUE(Close(s3[i], r3[i]));
        ks->moments(arr.b.data(), arr.c.data(), b, e, s3);
        sc.moments(arr.b.data(), arr.c.data(), b, e, r3);
        for (int i = 0; i < 3; ++i) EXPECT_TRUE(Close(s3[i], r3[i]));
        double cb2[2], cr2[2];
        ks->corner_bounds(arr.b.data(), arr.d.data(), arr.a.data(),
                          arr.c.data(), b, e, cb2);
        sc.corner_bounds(arr.b.data(), arr.d.data(), arr.a.data(),
                         arr.c.data(), b, e, cr2);
        for (int i = 0; i < 2; ++i) EXPECT_TRUE(Close(cb2[i], cr2[i]));
        std::vector<double> ps(kLen, -1), pr(kLen, -1);
        ks->prefix_sum(arr.b.data(), b, e, ps.data());
        sc.prefix_sum(arr.b.data(), b, e, pr.data());
        for (size_t t = b; t < e; ++t) EXPECT_TRUE(Close(ps[t], pr[t]));
        for (double thr : {0.5, 2.5, 100.0}) {
          EXPECT_EQ(ks->find_first_gt(arr.a.data(), b, e, thr),
                    sc.find_first_gt(arr.a.data(), b, e, thr));
          EXPECT_EQ(ks->find_last_gt(arr.a.data(), b, e, thr),
                    sc.find_last_gt(arr.a.data(), b, e, thr));
        }

        // Elementwise kernels must be bit-identical across tiers, sign of
        // zero included, and must not write outside [b, e).
        std::vector<double> w1(kLen, -1), l1(kLen, -1), h1(kLen, -1);
        std::vector<double> w2 = w1, l2 = l1, h2 = h1;
        auto expect_same = [&](const char* kernel) {
          EXPECT_TRUE(SameBits(w1, w2)) << kernel << " p/w";
          EXPECT_TRUE(SameBits(l1, l2)) << kernel << " lo";
          EXPECT_TRUE(SameBits(h1, h2)) << kernel << " hi";
        };
        ks->norm_prob3(arr.h.data(), arr.b.data(), arr.a.data(),
                       arr.d.data(), w1.data(), l1.data(), h1.data(), b, e);
        sc.norm_prob3(arr.h.data(), arr.b.data(), arr.a.data(), arr.d.data(),
                      w2.data(), l2.data(), h2.data(), b, e);
        expect_same("norm_prob3");
        ks->mul3(w1.data(), l1.data(), h1.data(), arr.a.data(), arr.c.data(),
                 arr.d.data(), b, e);
        sc.mul3(w2.data(), l2.data(), h2.data(), arr.a.data(), arr.c.data(),
                arr.d.data(), b, e);
        expect_same("mul3");
        ks->or_mul3(w1.data(), l1.data(), h1.data(), arr.d.data(),
                    arr.a.data(), arr.c.data(), b, e);
        sc.or_mul3(w2.data(), l2.data(), h2.data(), arr.d.data(),
                   arr.a.data(), arr.c.data(), b, e);
        expect_same("or_mul3");
        ks->complement3(w1.data(), l1.data(), h1.data(), b, e);
        sc.complement3(w2.data(), l2.data(), h2.data(), b, e);
        expect_same("complement3");
        // Eq. 29 weighting through one-row batches: a plain row, and one
        // whose middle third is a fully-covered run.
        const uint32_t run[] = {static_cast<uint32_t>(b + n / 3),
                                static_cast<uint32_t>(b + 2 * n / 3)};
        for (size_t n_runs : {0u, 1u}) {
          for (int widen : {0, 1}) {
            SCOPED_TRACE("runs=" + std::to_string(n_runs) +
                         " widen=" + std::to_string(widen));
            WeightRow r1{arr.h.data(), arr.b.data(), arr.a.data(),
                         arr.d.data(), w1.data(),    l1.data(),
                         h1.data(),    b,            e,
                         run,          n_runs};
            WeightRow r2 = r1;
            r2.w = w2.data();
            r2.lo = l2.data();
            r2.hi = h2.data();
            ks->weights_batch(&r1, 1, 2.33, 0.9, widen);
            sc.weights_batch(&r2, 1, 2.33, 0.9, widen);
            expect_same("weights_batch");
          }
        }
      }
    }
  }
}

// The multi-row reduction kernels (column-major cell prefixes) are
// elementwise across rows, so every tier must match scalar BITWISE —
// that's what keeps the fast path's whole-grid sweeps equal to the
// reference path's per-row ReduceRow walk.
TEST(KernelEdgeCases, MultiRowReduceMatchesScalarBitwise) {
  const KernelOps& sc = ScalarKernels();
  Rng rng(91);
  const size_t kN = 70;
  std::vector<uint64_t> pre_b(kN), pre_e(kN);
  for (size_t i = 0; i < kN; ++i) {
    uint64_t base = rng.UniformInt(100000);
    pre_b[i] = base;
    pre_e[i] = base + rng.UniformInt(5000);
  }
  pre_e[6] = pre_b[6] + (uint64_t{1} << 52) - 1;  // largest exact mass
  pre_e[9] = pre_b[9];                            // empty cell
  for (const KernelOps* ks : SupportedKernels()) {
    SCOPED_TRACE(ks->name);
    for (size_t b : {0u, 1u, 3u, 5u}) {
      for (size_t n : {0u, 1u, 3u, 4u, 5u, 8u, 17u, 33u, 64u}) {
        const size_t e = b + n;
        ASSERT_LE(e, kN);
        std::vector<double> a1(kN, 0.5), l1(kN, 0.25), h1(kN, 1.5);
        std::vector<double> a2 = a1, l2 = l1, h2 = h1;
        ks->run_mass3(pre_b.data(), pre_e.data(), a1.data(), l1.data(),
                      h1.data(), b, e);
        sc.run_mass3(pre_b.data(), pre_e.data(), a2.data(), l2.data(),
                     h2.data(), b, e);
        EXPECT_EQ(0, std::memcmp(a1.data(), a2.data(), kN * sizeof(double)));
        EXPECT_EQ(0, std::memcmp(l1.data(), l2.data(), kN * sizeof(double)));
        EXPECT_EQ(0, std::memcmp(h1.data(), h2.data(), kN * sizeof(double)));
        ks->cell_axpy3(pre_b.data(), pre_e.data(), 0.3, 0.1, 0.9, a1.data(),
                       l1.data(), h1.data(), b, e);
        sc.cell_axpy3(pre_b.data(), pre_e.data(), 0.3, 0.1, 0.9, a2.data(),
                      l2.data(), h2.data(), b, e);
        EXPECT_EQ(0, std::memcmp(a1.data(), a2.data(), kN * sizeof(double)));
        EXPECT_EQ(0, std::memcmp(l1.data(), l2.data(), kN * sizeof(double)));
        EXPECT_EQ(0, std::memcmp(h1.data(), h2.data(), kN * sizeof(double)));
      }
    }
  }
  // The u64 -> f64 conversion is exact up to 2^52 - 1 on every tier.
  for (const KernelOps* ks : SupportedKernels()) {
    std::vector<double> ap(kN, 0.0), al(kN, 0.0), ah(kN, 0.0);
    ks->run_mass3(pre_b.data(), pre_e.data(), ap.data(), al.data(),
                  ah.data(), 0, kN);
    EXPECT_EQ(ap[6], 4503599627370495.0) << ks->name;
    EXPECT_EQ(ap[9], 0.0) << ks->name;
  }
}

// Batched Eq.-29 weighting: each row of a batch must be bit-identical to
// weighting that row alone, and a fully-covered run must collapse to the
// bin counts — per tier, with and without sampling widening.
TEST(KernelEdgeCases, WeightsBatchRowsMatchOneRowCalls) {
  const size_t kN = 48;
  RandomArrays arr(kN, 2024);
  AddSpecialValues(&arr);
  // Two rows over the same counts: one with a fully-covered run in the
  // middle, one plain.
  const uint32_t runs[] = {10, 20};
  const size_t kBegin[] = {3, 0}, kEnd[] = {37, kN}, kRuns[] = {1, 0};
  for (const KernelOps* ks : SupportedKernels()) {
    SCOPED_TRACE(ks->name);
    for (int widen : {0, 1}) {
      SCOPED_TRACE("widen=" + std::to_string(widen));
      const double z = 2.33, fpc = 0.9;
      std::vector<double> batched[2][3], alone[2][3];
      WeightRow rows[2], single[2];
      for (int r = 0; r < 2; ++r) {
        for (int k = 0; k < 3; ++k) {
          batched[r][k].assign(kN, -1);
          alone[r][k].assign(kN, -1);
        }
        rows[r] = WeightRow{arr.h.data(),         arr.b.data(),
                            arr.a.data(),         arr.d.data(),
                            batched[r][0].data(), batched[r][1].data(),
                            batched[r][2].data(), kBegin[r],
                            kEnd[r],              runs,
                            kRuns[r]};
        single[r] = rows[r];
        single[r].w = alone[r][0].data();
        single[r].lo = alone[r][1].data();
        single[r].hi = alone[r][2].data();
      }
      ks->weights_batch(rows, 2, z, fpc, widen);
      for (int r = 0; r < 2; ++r) {
        ks->weights_batch(&single[r], 1, z, fpc, widen);
        for (int k = 0; k < 3; ++k) {
          EXPECT_TRUE(SameBits(batched[r][k], alone[r][k]))
              << "row " << r << " output " << k;
        }
      }
      for (size_t t = 0; t < kN; ++t) {
        const double hd = static_cast<double>(arr.h[t]);
        for (int k = 0; k < 3; ++k) {
          if (t < kBegin[0] || t >= kEnd[0]) {
            EXPECT_EQ(batched[0][k][t], -1.0) << t;  // outside the row
          } else if (t >= runs[0] && t < runs[1]) {
            EXPECT_EQ(batched[0][k][t], hd) << t;  // the covered run
          }
        }
        // Weighted bounds stay within [0, h].
        EXPECT_GE(batched[1][1][t], 0.0) << t;
        EXPECT_LE(batched[1][2][t], hd) << t;
      }
    }
  }
}

// The invariant the engine's fast-vs-reference bit-equality rests on: a
// reduction over [b, e) equals the SAME reduction over a wider range whose
// extra elements are exact zeros — identical doubles, per tier.
TEST(KernelPhaseAlignment, ZeroPaddedRangesAreBitIdentical) {
  const size_t kN = 300;
  RandomArrays arr(kN, 77);
  for (const KernelOps* ks : SupportedKernels()) {
    SCOPED_TRACE(ks->name);
    for (size_t b : {5u, 6u, 7u, 8u, 13u}) {
      for (size_t e : {b + 1, b + 30, b + 97, kN - 3}) {
        // Padded copies: zero outside [b, e).
        std::vector<double> pa(kN, 0.0), pb(kN, 0.0), pc(kN, 0.0);
        std::copy(arr.a.begin() + b, arr.a.begin() + e, pa.begin() + b);
        std::copy(arr.b.begin() + b, arr.b.begin() + e, pb.begin() + b);
        std::copy(arr.c.begin() + b, arr.c.begin() + e, pc.begin() + b);

        double x = ks->sum(arr.a.data(), b, e);
        double y = ks->sum(pa.data(), 0, kN);
        EXPECT_EQ(x, y);
        double o1[3], o2[3];
        ks->sum3(arr.a.data(), arr.b.data(), arr.c.data(), b, e, o1);
        ks->sum3(pa.data(), pb.data(), pc.data(), 0, kN, o2);
        EXPECT_EQ(0, std::memcmp(o1, o2, sizeof o1));
        // Dot: zero weights kill the padded terms exactly.
        x = ks->dot(arr.b.data(), arr.c.data(), b, e);
        y = ks->dot(pb.data(), arr.c.data(), 0, kN);
        EXPECT_EQ(x, y);
        ks->moments(arr.b.data(), arr.c.data(), b, e, o1);
        ks->moments(pb.data(), arr.c.data(), 0, kN, o2);
        EXPECT_EQ(0, std::memcmp(o1, o2, sizeof o1));
        // Prefix scan: identical values on the overlap, and the final
        // value (the walk's total) unchanged by trailing zeros.
        std::vector<double> s1(kN, -1), s2(kN, -1);
        ks->prefix_sum(arr.b.data(), b, e, s1.data());
        ks->prefix_sum(pb.data(), 0, kN, s2.data());
        for (size_t t = b; t < e; ++t) EXPECT_EQ(s1[t], s2[t]);
        EXPECT_EQ(s1[e - 1], s2[kN - 1]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized query equivalence: kScalar vs kAuto (widest tier) engines
// on the same synopsis (reusing the fastpath_test random query harness).

struct ColumnStats {
  std::string name;
  DataType type = DataType::kFloat64;
  double min = 0, max = 0;
  std::vector<std::string> dictionary;
};

std::vector<ColumnStats> CollectStats(const Table& t) {
  std::vector<ColumnStats> stats;
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    const Column& col = t.column(c);
    ColumnStats s;
    s.name = col.name();
    s.type = col.type();
    bool any = false;
    for (size_t r = 0; r < col.size(); ++r) {
      if (col.IsNull(r)) continue;
      double v = col.Value(r);
      if (!any || v < s.min) s.min = v;
      if (!any || v > s.max) s.max = v;
      any = true;
    }
    if (col.type() == DataType::kCategorical) s.dictionary = col.dictionary();
    stats.push_back(std::move(s));
  }
  return stats;
}

Condition RandCondition(Rng* rng, const std::vector<ColumnStats>& stats) {
  const ColumnStats& s = stats[static_cast<size_t>(
      rng->UniformInt(static_cast<uint64_t>(stats.size())))];
  static const CmpOp kOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                               CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};
  Condition c;
  c.column = s.name;
  c.op = kOps[rng->UniformInt(6)];
  if (s.type == DataType::kCategorical && !s.dictionary.empty() &&
      rng->Uniform(0, 1) < 0.7) {
    c.is_string = true;
    c.text_value = s.dictionary[static_cast<size_t>(
        rng->UniformInt(static_cast<uint64_t>(s.dictionary.size())))];
    c.op = rng->Uniform(0, 1) < 0.5 ? CmpOp::kEq : CmpOp::kNe;
    return c;
  }
  double span = s.max - s.min;
  double v = s.min + rng->Uniform(-0.1, 1.1) * (span > 0 ? span : 1.0);
  if (rng->Uniform(0, 1) < 0.5) v = std::floor(v);
  c.value = v;
  return c;
}

PredicateNode RandTree(Rng* rng, const std::vector<ColumnStats>& stats,
                       int depth) {
  if (depth <= 0 || rng->Uniform(0, 1) < 0.45) {
    PredicateNode n;
    n.type = PredicateNode::Type::kCondition;
    n.condition = RandCondition(rng, stats);
    return n;
  }
  PredicateNode n;
  n.type = rng->Uniform(0, 1) < 0.5 ? PredicateNode::Type::kAnd
                                    : PredicateNode::Type::kOr;
  size_t kids = 2 + rng->UniformInt(2);
  for (size_t i = 0; i < kids; ++i) {
    n.children.push_back(RandTree(rng, stats, depth - 1));
  }
  return n;
}

Query RandQuery(Rng* rng, const std::vector<ColumnStats>& stats,
                const std::string& table_name) {
  static const AggFunc kFuncs[] = {AggFunc::kCount,  AggFunc::kSum,
                                   AggFunc::kAvg,    AggFunc::kVar,
                                   AggFunc::kMin,    AggFunc::kMax,
                                   AggFunc::kMedian};
  Query q;
  q.table = table_name;
  q.func = kFuncs[rng->UniformInt(7)];
  const ColumnStats& agg = stats[static_cast<size_t>(
      rng->UniformInt(static_cast<uint64_t>(stats.size())))];
  q.agg_column = agg.name;
  if (rng->Uniform(0, 1) < 0.92) q.where = RandTree(rng, stats, 2);
  if (rng->Uniform(0, 1) < 0.15) {
    for (const ColumnStats& s : stats) {
      if (s.type == DataType::kCategorical) {
        q.group_by = s.name;
        break;
      }
    }
  }
  return q;
}

void ExpectResultsClose(const QueryResult& a, const QueryResult& b,
                        const std::string& ctx) {
  ASSERT_EQ(a.groups.size(), b.groups.size()) << ctx;
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].label, b.groups[g].label) << ctx;
    EXPECT_EQ(a.groups[g].agg.empty_selection, b.groups[g].agg.empty_selection)
        << ctx;
    EXPECT_TRUE(Close(a.groups[g].agg.estimate, b.groups[g].agg.estimate))
        << ctx << " est scalar=" << a.groups[g].agg.estimate
        << " simd=" << b.groups[g].agg.estimate;
    EXPECT_TRUE(Close(a.groups[g].agg.lower, b.groups[g].agg.lower))
        << ctx << " lower scalar=" << a.groups[g].agg.lower
        << " simd=" << b.groups[g].agg.lower;
    EXPECT_TRUE(Close(a.groups[g].agg.upper, b.groups[g].agg.upper))
        << ctx << " upper scalar=" << a.groups[g].agg.upper
        << " simd=" << b.groups[g].agg.upper;
  }
}

void RunScalarVsWidest(const Table& table, const PairwiseHistConfig& cfg,
                       uint64_t seed, size_t n_queries) {
  auto ph = PairwiseHist::BuildFromTable(table, cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  AqpEngineOptions scalar_opt;
  scalar_opt.kernels = KernelMode::kScalar;
  AqpEngineOptions simd_opt;
  simd_opt.kernels = KernelMode::kAuto;
  AqpEngine scalar_eng(&ph.value(), scalar_opt);
  AqpEngine simd_eng(&ph.value(), simd_opt);

  std::vector<ColumnStats> stats = CollectStats(table);
  Rng rng(seed);
  size_t executed = 0;
  for (size_t i = 0; i < n_queries; ++i) {
    Query q = RandQuery(&rng, stats, table.name());
    auto a = scalar_eng.Execute(q);
    auto b = simd_eng.Execute(q);
    ASSERT_EQ(a.ok(), b.ok()) << q.ToSql();
    if (!a.ok()) continue;
    ++executed;
    ExpectResultsClose(a.value(), b.value(), q.ToSql());
  }
  EXPECT_GT(executed, n_queries / 2);
}

TEST(KernelQueryEquivalence, PowerSampled600) {
  auto t = MakeDataset("power", 30000, 5);
  ASSERT_TRUE(t.ok());
  PairwiseHistConfig cfg;
  cfg.sample_size = 8000;  // Eq. 29 widening active
  RunScalarVsWidest(t.value(), cfg, 101, 600);
}

TEST(KernelQueryEquivalence, TaxisFullSample500) {
  auto t = MakeDataset("taxis", 25000, 11);
  ASSERT_TRUE(t.ok());
  PairwiseHistConfig cfg;
  cfg.sample_size = 0;  // rho = 1
  RunScalarVsWidest(t.value(), cfg, 103, 500);
}

// ---------------------------------------------------------------------------
// Determinism: per kernel setting, repeated runs are bit-identical — also
// across exec_threads on a segmented Db.

std::vector<double> Fingerprint(const Db& db,
                                const std::vector<std::string>& sqls) {
  std::vector<double> out;
  for (const std::string& sql : sqls) {
    auto r = db.ExecuteSql(sql);
    if (!r.ok()) {
      out.push_back(-1e308);
      continue;
    }
    for (const auto& g : r->groups) {
      out.push_back(g.agg.estimate);
      out.push_back(g.agg.lower);
      out.push_back(g.agg.upper);
    }
  }
  return out;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(KernelDeterminism, RepeatRunsAndThreadCountsBitIdentical) {
  const std::vector<std::string> sqls = {
      "SELECT COUNT(voltage) FROM power WHERE voltage > 240;",
      "SELECT SUM(global_active_power) FROM power WHERE hour >= 6 AND "
      "voltage > 236 AND global_intensity > 0.4;",
      "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
      "SELECT MEDIAN(global_active_power) FROM power WHERE hour < 12;",
      "SELECT VAR(voltage) FROM power WHERE voltage > 238;",
      "SELECT MIN(voltage) FROM power WHERE hour = 3;",
      "SELECT AVG(voltage) FROM power GROUP BY day_of_week;",
      "SELECT COUNT(voltage) FROM power WHERE hour < 4 OR hour > 20;",
  };
  for (KernelMode mode : {KernelMode::kScalar, KernelMode::kAuto}) {
    SCOPED_TRACE(KernelModeName(mode));
    std::vector<double> base;
    for (int rep = 0; rep < 2; ++rep) {
      DbOptions opt;
      opt.synopsis.sample_size = 6000;
      opt.engine.kernels = mode;
      opt.target_segment_rows = 5000;  // multi-segment
      opt.exec_threads = rep == 0 ? 1 : 4;
      auto db = Db::FromGenerator("power", 20000, 9, opt);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      std::vector<double> fp = Fingerprint(db.value(), sqls);
      // Executing twice from the same Db must also be bit-stable.
      EXPECT_TRUE(BitIdentical(fp, Fingerprint(db.value(), sqls)));
      if (rep == 0) {
        base = std::move(fp);
      } else {
        EXPECT_TRUE(BitIdentical(base, fp))
            << "results changed across exec_threads";
      }
    }
  }
}

// DbOptions::engine.kernels is actually wired through to the engines:
// scalar and auto Dbs agree within tolerance on a nontrivial workload.
TEST(KernelKnob, DbOptionKernelsIsWired) {
  DbOptions scalar_opt;
  scalar_opt.synopsis.sample_size = 5000;
  scalar_opt.engine.kernels = KernelMode::kScalar;
  DbOptions auto_opt = scalar_opt;
  auto_opt.engine.kernels = KernelMode::kAuto;
  auto a = Db::FromGenerator("power", 15000, 33, scalar_opt);
  auto b = Db::FromGenerator("power", 15000, 33, auto_opt);
  ASSERT_TRUE(a.ok() && b.ok());
  const char* kSqls[] = {
      "SELECT SUM(global_active_power) FROM power WHERE hour >= 6 AND "
      "voltage > 236;",
      "SELECT MEDIAN(voltage) FROM power WHERE hour < 12;",
      "SELECT AVG(global_intensity) FROM power WHERE day_of_week < 4;",
  };
  for (const char* sql : kSqls) {
    auto ra = a->ExecuteSql(sql);
    auto rb = b->ExecuteSql(sql);
    ASSERT_TRUE(ra.ok() && rb.ok()) << sql;
    ExpectResultsClose(ra.value(), rb.value(), sql);
  }
}

}  // namespace
}  // namespace pairwisehist
