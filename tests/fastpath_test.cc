// Fast-path validation: the engine's zero-allocation execution path
// (scratch arena, cell prefix index, interval-localized coverage, COUNT
// prefix-sum shortcut) must produce results IDENTICAL to the dense test
// oracle (tests/oracle/) — same doubles, not approximately equal — across
// every query shape, plus stay allocation-free in steady state and safe
// under concurrent execution.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "common/rng.h"
#include "core/pairwise_hist.h"
#include "datagen/datasets.h"
#include "query/engine.h"
#include "query/sql_parser.h"
#include "tests/oracle/reference_engine.h"

// ---------------------------------------------------------------------------
// Global allocation counter (this binary only): counts every operator-new
// so the zero-allocation claim is asserted, not assumed. Disabled under
// AddressSanitizer — ASan pairs its own operator new/delete interceptors,
// and a malloc-based replacement trips alloc-dealloc-mismatch; the
// zero-allocation property is still enforced by the regular CI job.

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
// Random query generation over an arbitrary table.

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
    if (rng->Uniform(0, 1) < 0.1) {
      c.text_value = "no-such-category";
    } else {
      c.text_value = s.dictionary[static_cast<size_t>(
          rng->UniformInt(static_cast<uint64_t>(s.dictionary.size())))];
    }
    // Only equality semantics are meaningful on categoricals.
    c.op = rng->Uniform(0, 1) < 0.5 ? CmpOp::kEq : CmpOp::kNe;
    return c;
  }
  double span = s.max - s.min;
  double v = s.min + rng->Uniform(-0.1, 1.1) * (span > 0 ? span : 1.0);
  if (rng->Uniform(0, 1) < 0.5) v = std::floor(v);  // mix integral literals
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
                const std::string& table_name, bool allow_group) {
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
  if (q.func == AggFunc::kCount && rng->Uniform(0, 1) < 0.25) {
    q.count_star = true;
    q.agg_column.clear();
  }
  if (rng->Uniform(0, 1) < 0.92) {
    q.where = RandTree(rng, stats, 2);
  }
  if (allow_group && rng->Uniform(0, 1) < 0.15) {
    for (const ColumnStats& s : stats) {
      if (s.type == DataType::kCategorical) {
        q.group_by = s.name;
        break;
      }
    }
  }
  return q;
}

// ---------------------------------------------------------------------------
// Identical-result assertion (exact doubles, NaN-aware).

bool SameDouble(double x, double y) {
  return (std::isnan(x) && std::isnan(y)) || x == y;
}

void ExpectIdentical(const QueryResult& ref, const QueryResult& fast,
                     const std::string& ctx) {
  ASSERT_EQ(ref.groups.size(), fast.groups.size()) << ctx;
  for (size_t g = 0; g < ref.groups.size(); ++g) {
    const auto& a = ref.groups[g];
    const auto& b = fast.groups[g];
    EXPECT_EQ(a.label, b.label) << ctx;
    EXPECT_EQ(a.agg.empty_selection, b.agg.empty_selection) << ctx;
    EXPECT_TRUE(SameDouble(a.agg.estimate, b.agg.estimate))
        << ctx << "  est ref=" << a.agg.estimate
        << " fast=" << b.agg.estimate;
    EXPECT_TRUE(SameDouble(a.agg.lower, b.agg.lower))
        << ctx << "  lower ref=" << a.agg.lower << " fast=" << b.agg.lower;
    EXPECT_TRUE(SameDouble(a.agg.upper, b.agg.upper))
        << ctx << "  upper ref=" << a.agg.upper << " fast=" << b.agg.upper;
  }
}

// Runs `n` random queries against the oracle and the engine and asserts
// identical output (including which queries fail, and how).
void RunEquivalence(const PairwiseHist& ph, const Table& table, uint64_t seed,
                    size_t n) {
  oracle::ReferenceEngine ref(&ph);
  AqpEngine fast(&ph);

  std::vector<ColumnStats> stats = CollectStats(table);
  Rng rng(seed);
  size_t executed = 0;
  for (size_t i = 0; i < n; ++i) {
    Query q = RandQuery(&rng, stats, table.name(), /*allow_group=*/true);
    auto a = ref.Execute(q);
    auto b = fast.Execute(q);
    ASSERT_EQ(a.ok(), b.ok()) << q.ToSql();
    if (!a.ok()) continue;
    ++executed;
    ExpectIdentical(a.value(), b.value(), q.ToSql());
  }
  // The generator should produce mostly executable queries.
  EXPECT_GT(executed, n / 2);
}

// ---------------------------------------------------------------------------
// Fixtures.

Table ControlledTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  Table t("ctl");
  Column x("x", DataType::kInt64, 0);
  Column y("y", DataType::kFloat64, 1);
  Column g("g", DataType::kCategorical, 0);
  g.SetDictionary({"small", "mid", "big"});
  for (size_t r = 0; r < n; ++r) {
    double xv = std::floor(rng.Uniform(0, 1000));
    x.Append(xv);
    y.Append(std::round((2 * xv + rng.Normal(0, 25)) * 10) / 10);
    g.Append(xv < 250 ? 0.0 : (xv < 750 ? 1.0 : 2.0));
  }
  t.AddColumn(std::move(x));
  t.AddColumn(std::move(y));
  t.AddColumn(std::move(g));
  return t;
}

TEST(FastPathEquivalence, ControlledFullSample) {
  Table t = ControlledTable(30000, 91);
  PairwiseHistConfig cfg;
  cfg.sample_size = 0;  // ρ = 1: no widening
  auto ph = PairwiseHist::BuildFromTable(t, cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  RunEquivalence(ph.value(), t, 7, 300);
}

TEST(FastPathEquivalence, TaxisSampledWithNulls) {
  auto t = MakeDataset("taxis", 30000, 11);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  PairwiseHistConfig cfg;
  cfg.sample_size = 8000;  // ρ < 1: Eq. 29 widening active
  auto ph = PairwiseHist::BuildFromTable(t.value(), cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  RunEquivalence(ph.value(), t.value(), 13, 300);
}

TEST(FastPathEquivalence, PowerSampled) {
  auto t = MakeDataset("power", 40000, 5);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  PairwiseHistConfig cfg;
  cfg.sample_size = 10000;
  auto ph = PairwiseHist::BuildFromTable(t.value(), cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  RunEquivalence(ph.value(), t.value(), 17, 250);
}

TEST(FastPathEquivalence, SerializeRoundTripRebuildsIndex) {
  Table t = ControlledTable(20000, 29);
  PairwiseHistConfig cfg;
  cfg.sample_size = 6000;
  auto ph = PairwiseHist::BuildFromTable(t, cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  auto back = PairwiseHist::Deserialize(ph->Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Engine vs oracle on the deserialized synopsis: proves the exec index
  // rebuilt at decode time is consistent with the decoded cells.
  RunEquivalence(back.value(), t, 23, 200);
}

// Directed COUNT shapes around the prefix-sum shortcut: full-range,
// half-open, equality, negation, empty, and unbounded predicates.
TEST(FastPathEquivalence, CountShortcutShapes) {
  Table t = ControlledTable(25000, 43);
  PairwiseHistConfig cfg;
  cfg.sample_size = 5000;
  auto ph = PairwiseHist::BuildFromTable(t, cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  oracle::ReferenceEngine ref(&ph.value());
  AqpEngine fast(&ph.value());
  const char* kShapes[] = {
      "SELECT COUNT(x) FROM ctl WHERE x >= 0;",
      "SELECT COUNT(x) FROM ctl WHERE x > 500;",
      "SELECT COUNT(x) FROM ctl WHERE x <= 123;",
      "SELECT COUNT(x) FROM ctl WHERE x = 400;",
      "SELECT COUNT(x) FROM ctl WHERE x != 400;",
      "SELECT COUNT(x) FROM ctl WHERE x > 2000;",
      "SELECT COUNT(x) FROM ctl WHERE x < -5;",
      "SELECT COUNT(x) FROM ctl WHERE x >= 250 AND x < 750;",
      "SELECT COUNT(g) FROM ctl WHERE g = 'mid';",
  };
  for (const char* sql : kShapes) {
    auto a = ref.ExecuteSql(sql);
    auto b = fast.ExecuteSql(sql);
    ASSERT_TRUE(a.ok() && b.ok()) << sql;
    ExpectIdentical(a.value(), b.value(), sql);
  }
}

// Seven prepared shapes on a 100k-row sampled power synopsis (ρ = 0.1):
// COUNT on one predicate and on a disjunction, cross-column AVG, a
// five-predicate SUM, single-column VAR, cross-column MEDIAN and a GROUP BY.
TEST(FastPathEquivalence, PowerPreparedShapes) {
  const size_t rows = 100000;
  DbOptions options;
  options.synopsis.sample_size = rows / 10;
  auto db = Db::FromGenerator("power", rows, 71, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const AqpEngine& fast = db->engine();
  oracle::ReferenceEngine ref(&db->synopsis(), fast.options());
  const char* kShapes[] = {
      "SELECT COUNT(voltage) FROM power WHERE voltage > 240;",
      "SELECT COUNT(voltage) FROM power WHERE hour < 4 OR hour > 20;",
      "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
      "SELECT SUM(global_active_power) FROM power WHERE hour >= 6 AND "
      "voltage > 236 AND global_intensity > 0.4 AND sub_metering_3 < 20 "
      "AND day_of_week < 6;",
      "SELECT VAR(voltage) FROM power WHERE voltage > 238;",
      "SELECT MEDIAN(global_active_power) FROM power WHERE hour < 12;",
      "SELECT AVG(global_active_power) FROM power GROUP BY day_of_week;",
  };
  for (const char* sql : kShapes) {
    auto q = ParseSql(sql);
    ASSERT_TRUE(q.ok()) << sql;
    auto plan = fast.Compile(*q);
    ASSERT_TRUE(plan.ok()) << sql;
    auto a = ref.Execute(plan.value());
    auto b = fast.Execute(plan.value());
    ASSERT_TRUE(a.ok() && b.ok()) << sql;
    ExpectIdentical(a.value(), b.value(), sql);
  }
}

// ---------------------------------------------------------------------------
// Zero allocations in steady state.

// Scalar shapes on a one-segment power Db, executed warm.
const char* const kSteadyStateShapes[] = {
    // COUNT shortcut + general branch-1 coverage.
    "SELECT COUNT(voltage) FROM power WHERE voltage > 240;",
    // Cross-column transfer (branch 3) with pair grid.
    "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
    // Deep conjunction across five columns.
    "SELECT SUM(global_active_power) FROM power WHERE hour >= 6 AND "
    "voltage > 236 AND global_intensity > 0.4 AND sub_metering_3 < 20 "
    "AND day_of_week < 6;",
    // Disjunction.
    "SELECT COUNT(voltage) FROM power WHERE hour < 4 OR hour > 20;",
    // Heavier aggregators.
    "SELECT VAR(voltage) FROM power WHERE voltage > 238;",
    "SELECT MEDIAN(global_active_power) FROM power WHERE hour < 12;",
    "SELECT MIN(voltage) FROM power WHERE hour = 3;",
};

TEST(FastPathAllocation, ScalarExecuteIntoIsAllocationFree) {
#if !PH_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under AddressSanitizer";
#endif
  auto db = Db::FromGenerator("power", 30000, 3);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (const char* sql : kSteadyStateShapes) {
    auto prepared = db->Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << sql;
    QueryResult result;
    // Warm up: grows the arena blocks, the scratch pool and the result
    // storage to their steady-state sizes.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(prepared->ExecuteInto(&result).ok()) << sql;
    }
    size_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 100; ++i) {
      Status st = prepared->ExecuteInto(&result);
      ASSERT_TRUE(st.ok()) << sql;
    }
    size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << sql << "  (" << (after - before) << " allocations in 100 calls)";
  }
}

// The engine entry point on its own (partial into pooled scratch, then a
// merge of one part), on the same shapes as above.
TEST(FastPathAllocation, EngineExecuteIntoIsAllocationFree) {
#if !PH_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under AddressSanitizer";
#endif
  auto db = Db::FromGenerator("power", 30000, 3);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const AqpEngine& engine = db->engine();
  for (const char* sql : kSteadyStateShapes) {
    auto q = ParseSql(sql);
    ASSERT_TRUE(q.ok()) << sql;
    auto compiled = engine.Compile(*q);
    ASSERT_TRUE(compiled.ok()) << sql;
    QueryResult r;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(engine.ExecuteInto(compiled.value(), &r).ok()) << sql;
    }
    size_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 100; ++i) {
      Status st = engine.ExecuteInto(compiled.value(), &r);
      ASSERT_TRUE(st.ok()) << sql;
    }
    size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << sql << "  (" << (after - before) << " allocations in 100 calls)";
  }
}

// A four-segment Db read pruned to one live segment is a merge of one
// part: as allocation-free as a one-segment Db, for every aggregate.
TEST(FastPathAllocation, PrunedToOneSegmentIsAllocationFree) {
#if !PH_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under AddressSanitizer";
#endif
  Rng rng(83);
  Table t("ev");
  Column id("id", DataType::kInt64, 0);
  Column x("x", DataType::kFloat64, 2);
  Column y("y", DataType::kFloat64, 1);
  for (size_t r = 0; r < 40000; ++r) {
    id.Append(static_cast<double>(r));
    x.Append(std::round(rng.Uniform(0, 100) * 100) / 100);
    y.Append(std::round(rng.Uniform(0, 50) * 10) / 10);
  }
  t.AddColumn(std::move(id));
  t.AddColumn(std::move(x));
  t.AddColumn(std::move(y));
  DbOptions options;
  options.synopsis.sample_size = 4000;
  options.target_segment_rows = 10000;
  options.exec_threads = 1;
  auto db = Db::FromTable(std::move(t), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(db->num_segments(), 4u);

  for (const char* f : {"COUNT", "SUM", "AVG", "VAR", "MIN", "MAX",
                        "MEDIAN"}) {
    const std::string sql = std::string("SELECT ") + f +
                            "(x) FROM ev WHERE id >= 31000 AND x < 45.5;";
    auto prepared = db->Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << sql;
    ASSERT_EQ(prepared->plan().PrunedSegments(), 3u) << sql;
    QueryResult result;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(prepared->ExecuteInto(&result).ok()) << sql;
    }
    size_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 100; ++i) {
      Status st = prepared->ExecuteInto(&result);
      ASSERT_TRUE(st.ok()) << sql;
    }
    size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << sql << "  (" << (after - before) << " allocations in 100 calls)";
  }
}

// ---------------------------------------------------------------------------
// Concurrency: one Db hammered from many threads must return the same
// results as single-threaded execution (scratch pool isolation + lock-free
// chi-squared cache).

TEST(FastPathConcurrency, ParallelExecuteMatchesSerial) {
  auto db = Db::FromGenerator("power", 30000, 9);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::vector<std::string> sqls = {
      "SELECT COUNT(voltage) FROM power WHERE voltage > 240;",
      "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
      "SELECT SUM(sub_metering_3) FROM power WHERE day_of_week < 3 AND "
      "hour >= 8;",
      "SELECT COUNT(voltage) FROM power WHERE hour < 4 OR hour > 20;",
      "SELECT VAR(voltage) FROM power WHERE global_intensity > 0.5;",
      "SELECT AVG(global_active_power) FROM power GROUP BY day_of_week;",
  };
  std::vector<PreparedQuery> prepared;
  std::vector<QueryResult> expected;
  for (const std::string& sql : sqls) {
    auto pq = db->Prepare(sql);
    ASSERT_TRUE(pq.ok()) << sql;
    auto r = pq->Execute();
    ASSERT_TRUE(r.ok()) << sql;
    prepared.push_back(std::move(pq).value());
    expected.push_back(std::move(r).value());
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th]() {
      QueryResult result;
      for (int i = 0; i < kIters; ++i) {
        size_t q = static_cast<size_t>((i + th) % sqls.size());
        if (!prepared[q].ExecuteInto(&result).ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const QueryResult& want = expected[q];
        bool same = result.groups.size() == want.groups.size();
        for (size_t g = 0; same && g < want.groups.size(); ++g) {
          same = result.groups[g].label == want.groups[g].label &&
                 SameDouble(result.groups[g].agg.estimate,
                            want.groups[g].agg.estimate) &&
                 SameDouble(result.groups[g].agg.lower,
                            want.groups[g].agg.lower) &&
                 SameDouble(result.groups[g].agg.upper,
                            want.groups[g].agg.upper);
        }
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Concurrent first-touch of a fresh synopsis: the chi-squared critical
// cache and scratch pool start cold on every thread simultaneously.
TEST(FastPathConcurrency, ColdStartRace) {
  Table t = ControlledTable(20000, 57);
  PairwiseHistConfig cfg;
  cfg.sample_size = 5000;
  auto ph = PairwiseHist::BuildFromTable(t, cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  AqpEngine engine(&ph.value());
  auto plan = engine.Compile(
      *ParseSql("SELECT AVG(y) FROM ctl WHERE x > 100 AND x < 900;"));
  ASSERT_TRUE(plan.ok());
  auto serial = engine.Execute(plan.value());
  ASSERT_TRUE(serial.ok());
  double want = serial->Scalar().estimate;

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < 8; ++th) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 50; ++i) {
        auto r = engine.Execute(plan.value());
        if (!r.ok() || !SameDouble(r->Scalar().estimate, want)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t2 : threads) t2.join();
  EXPECT_EQ(bad.load(), 0);
}

// ---------------------------------------------------------------------------
// Parallel construction determinism: any thread count produces a
// byte-identical synopsis.

TEST(ParallelBuild, DeterministicAcrossThreadCounts) {
  auto t = MakeDataset("power", 20000, 21);
  ASSERT_TRUE(t.ok());
  PairwiseHistConfig serial_cfg;
  serial_cfg.sample_size = 8000;
  serial_cfg.build_threads = 1;
  PairwiseHistConfig par_cfg = serial_cfg;
  par_cfg.build_threads = 0;  // one per core
  auto a = PairwiseHist::BuildFromTable(t.value(), serial_cfg);
  auto b = PairwiseHist::BuildFromTable(t.value(), par_cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->Serialize(), b->Serialize());
}

TEST(ParallelBuild, DbOptionsKnobIsWired) {
  DbOptions options;
  options.synopsis.sample_size = 5000;
  options.build_threads = 2;
  auto db = Db::FromGenerator("power", 15000, 33, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto r = db->ExecuteSql("SELECT COUNT(voltage) FROM power WHERE voltage > 240;");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->Scalar().estimate, 0);
}

}  // namespace
}  // namespace pairwisehist
