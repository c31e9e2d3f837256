// Batch execution validation (Db::ExecuteBatch over a span of prepared
// statements): executing many statements as one batch must produce results
// BIT-IDENTICAL to looping per-query PreparedQuery::ExecuteInto — same
// doubles, not approximately equal — across every compiled kernel tier,
// across exec_threads on a segmented Db, and across Db::Append (lazy plan
// extension). Plus directed dashboard batches, repeated statements, and
// API edges. Batch scratch is pooled (common/object_pool.h), so repeated
// ExecuteBatch calls must also be allocation-free in steady state —
// asserted below with the same counting allocator as fastpath_test.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "common/rng.h"
#include "datagen/datasets.h"
#include "query/sql_parser.h"

// Global allocation counter (this binary only); disabled under ASan, which
// pairs its own operator new/delete interceptors (see fastpath_test.cc).
#if defined(__SANITIZE_ADDRESS__)
#define PH_COUNTING_ALLOCATOR 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PH_COUNTING_ALLOCATOR 0
#endif
#endif
#ifndef PH_COUNTING_ALLOCATOR
#define PH_COUNTING_ALLOCATOR 1
#endif

namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

#if PH_COUNTING_ALLOCATOR
void* operator new(size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
#endif  // PH_COUNTING_ALLOCATOR

namespace pairwisehist {
namespace {

// ---------------------------------------------------------------------------
// Random query generation (the fastpath_test harness shapes).

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
  if (q.func == AggFunc::kCount && rng->Uniform(0, 1) < 0.2) {
    q.count_star = true;
    q.agg_column.clear();
  }
  if (rng->Uniform(0, 1) < 0.9) q.where = RandTree(rng, stats, 2);
  if (rng->Uniform(0, 1) < 0.12) {
    for (const ColumnStats& s : stats) {
      if (s.type == DataType::kCategorical) {
        q.group_by = s.name;
        break;
      }
    }
  }
  return q;
}

// A dashboard-style block sharing one grid and predicate: every aggregate
// over the same column under the same WHERE. These are the shapes the
// batch path amortizes hardest, so make sure the randomized mix always
// contains grid-sharing groups, not just by chance.
std::vector<Query> DashboardBlock(Rng* rng,
                                  const std::vector<ColumnStats>& stats,
                                  const std::string& table_name) {
  static const AggFunc kFuncs[] = {AggFunc::kCount,  AggFunc::kSum,
                                   AggFunc::kAvg,    AggFunc::kVar,
                                   AggFunc::kMin,    AggFunc::kMax,
                                   AggFunc::kMedian};
  PredicateNode where = RandTree(rng, stats, 1);
  const ColumnStats& agg = stats[static_cast<size_t>(
      rng->UniformInt(static_cast<uint64_t>(stats.size())))];
  std::vector<Query> block;
  for (AggFunc f : kFuncs) {
    Query q;
    q.table = table_name;
    q.func = f;
    q.agg_column = agg.name;
    q.where = where;
    block.push_back(std::move(q));
  }
  return block;
}

// ---------------------------------------------------------------------------
// Identical-result assertion (exact doubles, NaN-aware).

bool SameDouble(double x, double y) {
  return (std::isnan(x) && std::isnan(y)) || x == y;
}

void ExpectIdentical(const QueryResult& want, const QueryResult& got,
                     const std::string& ctx) {
  ASSERT_EQ(want.groups.size(), got.groups.size()) << ctx;
  for (size_t g = 0; g < want.groups.size(); ++g) {
    const auto& a = want.groups[g];
    const auto& b = got.groups[g];
    EXPECT_EQ(a.label, b.label) << ctx;
    EXPECT_EQ(a.agg.empty_selection, b.agg.empty_selection) << ctx;
    EXPECT_TRUE(SameDouble(a.agg.estimate, b.agg.estimate))
        << ctx << "  est loop=" << a.agg.estimate
        << " batch=" << b.agg.estimate;
    EXPECT_TRUE(SameDouble(a.agg.lower, b.agg.lower))
        << ctx << "  lower loop=" << a.agg.lower << " batch=" << b.agg.lower;
    EXPECT_TRUE(SameDouble(a.agg.upper, b.agg.upper))
        << ctx << "  upper loop=" << a.agg.upper << " batch=" << b.agg.upper;
  }
}

// Prepares `sqls` and executes them as one batch.
StatusOr<std::vector<QueryResult>> RunBatch(
    const Db& db, const std::vector<std::string>& sqls) {
  std::vector<PreparedQuery> prepared;
  for (const std::string& sql : sqls) {
    PH_ASSIGN_OR_RETURN(PreparedQuery pq, db.Prepare(sql));
    prepared.push_back(std::move(pq));
  }
  std::vector<QueryResult> results;
  PH_RETURN_IF_ERROR(
      db.ExecuteBatch(prepared.data(), prepared.size(), &results));
  return results;
}

// Generates `n_random` random queries (plus dashboard blocks), keeps the
// preparable ones, and asserts batch execution — in mixed-size chunks, over
// freshly prepared statements and over the ones the loop already ran —
// matches the per-query loop bitwise. `*checked` reports how many were
// compared.
void RunBatchEquivalence(const Db& db, const Table& table, uint64_t seed,
                         size_t n_random, size_t* checked) {
  *checked = 0;
  std::vector<ColumnStats> stats = CollectStats(table);
  Rng rng(seed);

  std::vector<Query> kept;
  std::vector<PreparedQuery> prepared;
  std::vector<QueryResult> expected;
  auto consider = [&](const Query& q) {
    auto pq = db.Prepare(q);
    if (!pq.ok()) return;
    QueryResult r;
    ASSERT_TRUE(pq->ExecuteInto(&r).ok()) << q.ToSql();
    kept.push_back(q);
    prepared.push_back(std::move(pq).value());
    expected.push_back(std::move(r));
  };
  for (size_t i = 0; i < n_random; ++i) {
    if (i % 10 == 0) {
      for (const Query& q : DashboardBlock(&rng, stats, table.name())) {
        consider(q);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    consider(RandQuery(&rng, stats, table.name()));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(kept.size(), n_random / 2);

  // Mixed-size chunks over the whole workload, freshly prepared ...
  const size_t kChunks[] = {1, 3, 8, 17, 32};
  size_t off = 0, c = 0;
  while (off < kept.size()) {
    size_t len = std::min(kChunks[c++ % 5], kept.size() - off);
    std::vector<PreparedQuery> chunk;
    for (size_t i = off; i < off + len; ++i) {
      auto pq = db.Prepare(kept[i]);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString();
      chunk.push_back(std::move(pq).value());
    }
    std::vector<QueryResult> got;
    ASSERT_TRUE(db.ExecuteBatch(chunk.data(), len, &got).ok());
    ASSERT_EQ(got.size(), len);
    for (size_t i = 0; i < len; ++i) {
      ExpectIdentical(expected[off + i], got[i], kept[off + i].ToSql());
    }
    // ... and over the statements the loop already executed.
    std::vector<QueryResult> got2;
    ASSERT_TRUE(db.ExecuteBatch(prepared.data() + off, len, &got2).ok());
    for (size_t i = 0; i < len; ++i) {
      ExpectIdentical(expected[off + i], got2[i], kept[off + i].ToSql());
    }
    off += len;
  }
  *checked = kept.size();
}

// ---------------------------------------------------------------------------
// Equivalence across kernel tiers (single segment).

TEST(BatchEquivalence, SingleSegmentScalarTier) {
  auto t = MakeDataset("power", 40000, 5);
  ASSERT_TRUE(t.ok());
  DbOptions opt;
  opt.synopsis.sample_size = 10000;  // Eq. 29 widening active
  opt.engine.kernels = KernelMode::kScalar;
  auto db = Db::FromTable(*t, opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  size_t checked = 0;
  RunBatchEquivalence(db.value(), t.value(), 101, 160, &checked);
  EXPECT_GE(checked, 120u);
}

TEST(BatchEquivalence, SingleSegmentWidestTier) {
  auto t = MakeDataset("power", 40000, 5);
  ASSERT_TRUE(t.ok());
  DbOptions opt;
  opt.synopsis.sample_size = 10000;
  opt.engine.kernels = KernelMode::kAuto;  // the widest tier
  auto db = Db::FromTable(*t, opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  size_t checked = 0;
  RunBatchEquivalence(db.value(), t.value(), 160, 160, &checked);
  EXPECT_GE(checked, 120u);
}

TEST(BatchEquivalence, TaxisWithNullsFullSample) {
  auto t = MakeDataset("taxis", 30000, 11);
  ASSERT_TRUE(t.ok());
  DbOptions opt;
  opt.synopsis.sample_size = 0;  // rho = 1: no widening
  auto db = Db::FromTable(*t, opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  size_t checked = 0;
  RunBatchEquivalence(db.value(), t.value(), 7, 120, &checked);
  EXPECT_GE(checked, 80u);
}

// ---------------------------------------------------------------------------
// Equivalence across exec_threads (multi-segment fan-out + serial merge).

TEST(BatchEquivalence, MultiSegmentExecThreads) {
  auto t = MakeDataset("power", 40000, 9);
  ASSERT_TRUE(t.ok());
  for (unsigned threads : {1u, 8u}) {
    SCOPED_TRACE("exec_threads=" + std::to_string(threads));
    DbOptions opt;
    opt.synopsis.sample_size = 6000;
    opt.target_segment_rows = 6000;  // 7 segments
    opt.exec_threads = threads;
    auto db = Db::FromTable(*t, opt);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_GT(db->num_segments(), 1u);
    size_t checked = 0;
  RunBatchEquivalence(db.value(), t.value(), 201, 100, &checked);
    EXPECT_GE(checked, 70u);
  }
}

// ---------------------------------------------------------------------------
// Directed dashboard batches on a 200k-row sampled power synopsis (ρ = 0.1)
// at 1 and 4 segments: every aggregate of one tile's filter (with repeated
// tiles), distinct predicates on one grid, and a mixed page over several
// columns — 28 statements, each batch bit-identical to the loop.

TEST(BatchEquivalence, DashboardPagesMatchLoop) {
  const std::vector<std::vector<std::string>> kBatches = {
      {
          "SELECT COUNT(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT SUM(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT VAR(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT MIN(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT MAX(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT MEDIAN(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT COUNT(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT SUM(global_active_power) FROM power WHERE hour >= 18;",
      },
      {
          "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT AVG(global_active_power) FROM power WHERE hour >= 6;",
          "SELECT AVG(global_active_power) FROM power WHERE hour < 12;",
          "SELECT SUM(global_active_power) FROM power WHERE hour >= 20;",
          "SELECT COUNT(global_active_power) FROM power WHERE hour < 4;",
          "SELECT MEDIAN(global_active_power) FROM power WHERE hour >= 8;",
          "SELECT VAR(global_active_power) FROM power WHERE hour < 22;",
          "SELECT MAX(global_active_power) FROM power WHERE hour >= 12;",
      },
      {
          "SELECT COUNT(voltage) FROM power WHERE voltage > 240;",
          "SELECT AVG(voltage) FROM power WHERE voltage > 240;",
          "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT SUM(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT MEDIAN(global_active_power) FROM power WHERE hour >= 18;",
          "SELECT SUM(global_active_power) FROM power WHERE hour >= 6 AND "
          "voltage > 236 AND global_intensity > 0.4;",
          "SELECT COUNT(voltage) FROM power WHERE hour < 4 OR hour > 20;",
          "SELECT VAR(sub_metering_3) FROM power WHERE day_of_week < 6;",
          "SELECT AVG(sub_metering_3) FROM power WHERE day_of_week < 6;",
          "SELECT MAX(global_intensity) FROM power WHERE hour >= 18;",
      },
  };
  const size_t rows = 200000;
  for (size_t nseg : {1u, 4u}) {
    SCOPED_TRACE("segments=" + std::to_string(nseg));
    DbOptions opt;
    opt.synopsis.sample_size = rows / 10;
    opt.target_segment_rows = nseg == 1 ? 0 : rows / nseg;
    auto db = Db::FromGenerator("power", rows, 71, opt);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_EQ(db->num_segments(), nseg);
    for (const std::vector<std::string>& sqls : kBatches) {
      auto got = RunBatch(db.value(), sqls);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), sqls.size());
      for (size_t i = 0; i < sqls.size(); ++i) {
        auto pq = db->Prepare(sqls[i]);
        ASSERT_TRUE(pq.ok()) << sqls[i];
        QueryResult want;
        ASSERT_TRUE(pq->ExecuteInto(&want).ok()) << sqls[i];
        ExpectIdentical(want, (*got)[i], sqls[i]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Append: statements prepared for batching stay valid, extend lazily onto
// fresh segments, and remain bit-identical to the per-query loop
// afterwards.

TEST(BatchAppend, LazyExtensionStaysIdentical) {
  auto t = MakeDataset("power", 30000, 21);
  ASSERT_TRUE(t.ok());
  DbOptions opt;
  opt.synopsis.sample_size = 8000;
  opt.target_segment_rows = 10000;
  auto db = Db::FromTable(*t, opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  std::vector<ColumnStats> stats = CollectStats(t.value());
  Rng rng(31);
  std::vector<Query> kept;
  std::vector<PreparedQuery> prepared;
  for (size_t i = 0; i < 80 && kept.size() < 60; ++i) {
    Query q = RandQuery(&rng, stats, t->name());
    auto pq = db->Prepare(q);
    if (!pq.ok()) continue;
    kept.push_back(q);
    prepared.push_back(std::move(pq).value());
  }
  ASSERT_GE(kept.size(), 30u);
  // The batch runs its own plans, so the loop's plans extend separately.
  std::vector<PreparedQuery> batch;
  for (const Query& q : kept) {
    auto pq = db->Prepare(q);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    batch.push_back(std::move(pq).value());
  }

  // Before the append.
  std::vector<QueryResult> got;
  ASSERT_TRUE(db->ExecuteBatch(batch.data(), batch.size(), &got).ok());
  for (size_t i = 0; i < kept.size(); ++i) {
    QueryResult want;
    ASSERT_TRUE(prepared[i].ExecuteInto(&want).ok());
    ExpectIdentical(want, got[i], kept[i].ToSql());
  }

  // Seal fresh segments; both the batch and the per-query plans must
  // extend lazily and still agree bitwise (and see the new rows).
  auto fresh = MakeDataset("power", 12000, 77);
  ASSERT_TRUE(fresh.ok());
  const size_t before_segments = db->num_segments();
  ASSERT_TRUE(db->Append(fresh.value()).ok());
  ASSERT_GT(db->num_segments(), before_segments);

  std::vector<QueryResult> after;
  ASSERT_TRUE(db->ExecuteBatch(batch.data(), batch.size(), &after).ok());
  for (size_t i = 0; i < kept.size(); ++i) {
    QueryResult want;
    ASSERT_TRUE(prepared[i].ExecuteInto(&want).ok());
    ExpectIdentical(want, after[i], "post-append " + kept[i].ToSql());
  }

  // Sanity: the appended rows are actually visible through the batch.
  auto counted = RunBatch(db.value(), {"SELECT COUNT(*) FROM power;"});
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->at(0).Scalar().estimate,
            static_cast<double>(t->NumRows() + fresh->NumRows()));
}

// ---------------------------------------------------------------------------
// Repeated statements: they share coverage and weighting inside the
// engine's grid grouping, and each still answers as if run alone.

TEST(BatchDuplicates, RepeatedStatementsMatchSingleRuns) {
  auto db = Db::FromGenerator("power", 20000, 3);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::string a = "SELECT AVG(voltage) FROM power WHERE hour > 18;";
  const std::string b = "SELECT COUNT(voltage) FROM power WHERE hour > 18;";
  const std::vector<std::string> sqls = {a, b, a, a, b};
  auto results = RunBatch(db.value(), sqls);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto single = db->ExecuteSql(sqls[i]);
    ASSERT_TRUE(single.ok());
    ExpectIdentical(single.value(), results->at(i), sqls[i]);
  }
}

// Literals that differ past ten significant digits are different
// statements and keep different answers within one batch.
TEST(BatchDuplicates, LiteralsPastTenDigitsKeepTheirAnswers) {
  auto db = Db::FromGenerator("power", 8000, 3);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::string whole =
      "SELECT COUNT(*) FROM power WHERE timestamp < 1578000000;";
  const std::string frac =
      "SELECT COUNT(*) FROM power WHERE timestamp < 1578000000.4;";
  const std::vector<std::string> sqls = {whole, frac, whole, frac};
  auto results = RunBatch(db.value(), sqls);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto single = db->ExecuteSql(sqls[i]);
    ASSERT_TRUE(single.ok());
    ExpectIdentical(single.value(), results->at(i), sqls[i]);
  }
  ASSERT_NE(results->at(0).Scalar().estimate, results->at(1).Scalar().estimate);
}

// ---------------------------------------------------------------------------
// API edges.

TEST(BatchApi, EmptyBatch) {
  auto db = Db::FromGenerator("power", 15000, 7);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<QueryResult> results(3);
  EXPECT_TRUE(db->ExecuteBatch(nullptr, 0, &results).ok());
  EXPECT_TRUE(results.empty());
}

// A statement prepared on another Db holds plans for that Db's segments;
// running them on this Db's engines would answer wrongly, so the batch
// refuses it (and an unprepared slot) instead.
TEST(BatchApi, StatementFromAnotherDbIsRejected) {
  auto db = Db::FromGenerator("power", 15000, 7);
  auto other = Db::FromGenerator("power", 4000, 8);
  ASSERT_TRUE(db.ok() && other.ok());
  std::vector<PreparedQuery> batch;
  for (const Db* d : {&db.value(), &other.value()}) {
    auto pq = d->Prepare("SELECT AVG(voltage) FROM power WHERE hour > 3;");
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    batch.push_back(std::move(pq).value());
  }
  std::vector<QueryResult> results;
  EXPECT_EQ(db->ExecuteBatch(batch.data(), 2, &results).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(db->ExecuteBatch(batch.data(), 1, &results).ok());
  const PreparedQuery unprepared;
  EXPECT_EQ(db->ExecuteBatch(&unprepared, 1, &results).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Steady state: with pooled batch scratch, repeated Db::ExecuteBatch over
// warm results of distinct scalar statements allocates nothing.

TEST(BatchSteadyState, RepeatedExecuteIntoIsAllocationFree) {
#if !PH_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under AddressSanitizer";
#else
  auto db = Db::FromGenerator("power", 20000, 7);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM power;",
      "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
      "SELECT SUM(global_active_power) FROM power WHERE hour >= 18;",
      "SELECT COUNT(voltage) FROM power WHERE voltage > 240;",
      "SELECT AVG(voltage) FROM power WHERE hour < 6;",
      "SELECT AVG(global_intensity) FROM power WHERE day_of_week < 6;",
  };
  std::vector<PreparedQuery> batch;
  for (const std::string& sql : sqls) {
    auto pq = db->Prepare(sql);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    batch.push_back(std::move(pq).value());
  }
  ASSERT_EQ(db->num_segments(), 1u);

  std::vector<QueryResult> results;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db->ExecuteBatch(batch.data(), batch.size(), &results).ok());
  }
  const std::vector<QueryResult> warm = results;

  const size_t before = g_alloc_count.load(std::memory_order_relaxed);
  int failures = 0;
  for (int i = 0; i < 100; ++i) {
    if (!db->ExecuteBatch(batch.data(), batch.size(), &results).ok()) {
      ++failures;
    }
  }
  const size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(after - before, 0u)
      << "Db::ExecuteBatch allocated in steady state";
  ASSERT_EQ(results.size(), warm.size());
  for (size_t q = 0; q < results.size(); ++q) {
    ExpectIdentical(warm[q], results[q], sqls[q]);
  }
#endif
}

}  // namespace
}  // namespace pairwisehist
