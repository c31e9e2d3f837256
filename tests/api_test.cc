// Tests for the unified Db facade and the prepared-query (parse-once,
// execute-many) API: open paths, plan/execute equivalence with the one-shot
// engine entry points, Save/Open round trips, incremental Append, and
// backend swapping through AqpMethod.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "baselines/sampling_aqp.h"
#include "common/rng.h"
#include "datagen/datasets.h"
#include "query/engine.h"
#include "query/exact.h"
#include "query/sql_parser.h"
#include "storage/csv.h"

namespace pairwisehist {
namespace {

// Query shapes covering every execution path: scalar/grouped, AND/OR,
// same-column consolidation, COUNT(*), every aggregate of Table 3.
const char* kWorkload[] = {
    "SELECT COUNT(*) FROM power;",
    "SELECT COUNT(*) FROM power WHERE voltage > 240;",
    "SELECT COUNT(voltage) FROM power WHERE voltage > 240 AND hour < 12;",
    "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
    "SELECT SUM(sub_metering_3) FROM power WHERE voltage > 240 AND "
    "hour < 12;",
    "SELECT MIN(voltage) FROM power WHERE voltage > 235 AND voltage < 245;",
    "SELECT MAX(global_intensity) FROM power WHERE hour < 6 OR hour > 22;",
    "SELECT MEDIAN(global_active_power) FROM power WHERE day_of_week = 6;",
    "SELECT VAR(global_active_power) FROM power WHERE hour > 6;",
    "SELECT AVG(global_active_power) FROM power WHERE hour >= 6 AND "
    "hour <= 18 OR voltage > 242;",
    "SELECT AVG(global_active_power) FROM power GROUP BY day_of_week;",
    "SELECT COUNT(*) FROM power GROUP BY day_of_week;",
};

void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                      const std::string& sql) {
  ASSERT_EQ(a.groups.size(), b.groups.size()) << sql;
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].label, b.groups[g].label) << sql;
    const AggResult& x = a.groups[g].agg;
    const AggResult& y = b.groups[g].agg;
    EXPECT_EQ(x.empty_selection, y.empty_selection) << sql;
    if (x.empty_selection) continue;
    EXPECT_DOUBLE_EQ(x.estimate, y.estimate) << sql;
    EXPECT_DOUBLE_EQ(x.lower, y.lower) << sql;
    EXPECT_DOUBLE_EQ(x.upper, y.upper) << sql;
  }
}

class ApiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbOptions options;
    options.synopsis.sample_size = 10000;
    auto db = Db::FromGenerator("power", 40000, 7, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = new Db(std::move(db).value());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Db* db_;
};

Db* ApiTest::db_ = nullptr;

TEST_F(ApiTest, OpenFromTable) {
  Table table = MakePower(20000, 3);
  DbOptions options;
  options.synopsis.sample_size = 5000;
  auto db = Db::FromTable(std::move(table), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->name(), "power");
  EXPECT_EQ(db->synopsis().total_rows(), 20000u);
  ASSERT_NE(db->table(), nullptr);
  EXPECT_EQ(db->table()->NumRows(), 20000u);
  auto r = db->ExecuteSql("SELECT COUNT(*) FROM power;");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->Scalar().estimate, 20000.0);
}

TEST_F(ApiTest, OpenFromCsv) {
  Table table = MakeTemp(2000, 5);
  std::string path = ::testing::TempDir() + "/api_test_temp.csv";
  ASSERT_TRUE(WriteCsv(table, path).ok());

  DbOptions options;
  options.synopsis.sample_size = 2000;
  auto db = Db::FromCsv(path, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->synopsis().total_rows(), 2000u);

  // The facade answers SQL from CSV data end to end.
  auto approx = db->ExecuteSql("SELECT COUNT(*) FROM t;");
  ASSERT_TRUE(approx.ok());
  EXPECT_DOUBLE_EQ(approx->Scalar().estimate, 2000.0);
  std::remove(path.c_str());
}

TEST_F(ApiTest, OpenFromCsvMissingFile) {
  auto db = Db::FromCsv("/nonexistent/nope.csv");
  EXPECT_FALSE(db.ok());
}

TEST_F(ApiTest, PreparedReExecutionMatchesExecuteSql) {
  for (const char* sql : kWorkload) {
    auto prepared = db_->Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << sql << ": "
                               << prepared.status().ToString();
    EXPECT_TRUE(prepared->compiled());

    auto oneshot = db_->engine().ExecuteSql(sql);
    ASSERT_TRUE(oneshot.ok()) << sql;

    // Execute the prepared statement several times: identical answers to
    // the parse-per-call path every time.
    for (int rep = 0; rep < 3; ++rep) {
      auto r = prepared->Execute();
      ASSERT_TRUE(r.ok()) << sql;
      ExpectSameResult(r.value(), oneshot.value(), sql);
    }
  }
}

TEST_F(ApiTest, PreparedExactMatchesExactSql) {
  const char* sql =
      "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;";
  auto prepared = db_->Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  auto exact_prepared = prepared->ExecuteExact();
  ASSERT_TRUE(exact_prepared.ok());
  auto exact_direct = ExecuteExactSql(*db_->table(), sql);
  ASSERT_TRUE(exact_direct.ok());
  ExpectSameResult(exact_prepared.value(), exact_direct.value(), sql);
}

TEST_F(ApiTest, CompileOnceIsDeterministicUnderPairGrid) {
  // The pair-grid choice happens at compile time; re-executions must not
  // drift from each other.
  auto prepared = db_->Prepare(
      "SELECT SUM(global_active_power) FROM power WHERE hour >= 6 AND "
      "voltage > 236 AND global_intensity > 0.4;");
  ASSERT_TRUE(prepared.ok());
  auto first = prepared->Execute();
  ASSERT_TRUE(first.ok());
  for (int rep = 0; rep < 5; ++rep) {
    auto again = prepared->Execute();
    ASSERT_TRUE(again.ok());
    ExpectSameResult(again.value(), first.value(), "pair-grid repeat");
  }
}

TEST_F(ApiTest, SaveOpenRoundTripPreservesAnswers) {
  std::string path = ::testing::TempDir() + "/api_test_synopsis.ph";
  ASSERT_TRUE(db_->Save(path).ok());

  auto restored = Db::Open(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->synopsis().total_rows(), db_->synopsis().total_rows());
  EXPECT_EQ(restored->table(), nullptr);  // synopsis-only

  for (const char* sql : kWorkload) {
    auto a = db_->ExecuteSql(sql);
    auto b = restored->ExecuteSql(sql);
    ASSERT_TRUE(a.ok() && b.ok()) << sql;
    ExpectSameResult(a.value(), b.value(), sql);
  }

  // Exact fallback is gone but reports a clean status, not a crash.
  auto exact = restored->ExecuteExactSql("SELECT COUNT(*) FROM power;");
  EXPECT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kUnsupported);
  std::remove(path.c_str());
}

// A reopened Db appends like the Db that saved it: Open takes the same
// DbOptions, so target_segment_rows splits a large batch into the same
// segments and the answers match.
TEST(ApiOpen, AppendAfterOpenHonorsTargetSegmentRows) {
  DbOptions options;
  options.target_segment_rows = 1000;
  auto built = Db::FromGenerator("power", 4000, 7, options);
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(built->num_segments(), 4u);
  const std::string path = ::testing::TempDir() + "/api_open_segments.pws3";
  ASSERT_TRUE(built->Save(path).ok());
  auto opened = Db::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  auto batch = MakeDataset("power", 2500, 100);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(built->Append(batch.value()).ok());
  ASSERT_TRUE(opened->Append(batch.value()).ok());
  EXPECT_EQ(built->num_segments(), 7u);
  EXPECT_EQ(opened->num_segments(), built->num_segments());
  for (const char* sql : kWorkload) {
    auto a = built->ExecuteSql(sql);
    auto b = opened->ExecuteSql(sql);
    ASSERT_TRUE(a.ok() && b.ok()) << sql;
    ExpectSameResult(a.value(), b.value(), sql);
  }
  std::remove(path.c_str());
}

TEST_F(ApiTest, BlobRoundTrip) {
  std::vector<uint8_t> blob = db_->ToBlob();
  auto restored = Db::FromBlob(blob);
  ASSERT_TRUE(restored.ok());
  auto a = db_->ExecuteSql("SELECT AVG(voltage) FROM power;");
  auto b = restored->ExecuteSql("SELECT AVG(voltage) FROM power;");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->Scalar().estimate, b->Scalar().estimate);
}

TEST_F(ApiTest, AppendReflectedInResults) {
  DbOptions options;
  options.synopsis.sample_size = 8000;
  auto db = Db::FromGenerator("power", 30000, 11, options);
  ASSERT_TRUE(db.ok());

  // Prepare BEFORE the append: plans must survive appends and see the new
  // rows.
  auto count = db->Prepare("SELECT COUNT(*) FROM power;");
  auto filtered = db->Prepare(
      "SELECT COUNT(voltage) FROM power WHERE voltage > 230;");
  ASSERT_TRUE(count.ok() && filtered.ok());
  auto before = count->Execute();
  auto filtered_before = filtered->Execute();
  ASSERT_TRUE(before.ok() && filtered_before.ok());
  EXPECT_DOUBLE_EQ(before->Scalar().estimate, 30000.0);

  Table batch = MakePower(5000, 77);
  ASSERT_TRUE(db->Append(batch).ok());

  auto after = count->Execute();
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(after->Scalar().estimate, 35000.0);
  auto filtered_after = filtered->Execute();
  ASSERT_TRUE(filtered_after.ok());
  EXPECT_GT(filtered_after->Scalar().estimate,
            filtered_before->Scalar().estimate);

  // The kept table grew too, so exact answers track the append.
  auto exact = db->ExecuteExactSql("SELECT COUNT(*) FROM power;");
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact->Scalar().estimate, 35000.0);
}

TEST_F(ApiTest, AppendRecodesMismatchedDictionaries) {
  // Two tables with the same categorical strings interned in different
  // orders: the batch's codes must be re-mapped through the fitted
  // dictionary before reaching the synopsis, or category predicates
  // silently count the wrong values after an append.
  auto make = [](size_t n, bool fault_first, uint64_t seed) {
    Table t("sensors");
    Column reading("reading", DataType::kFloat64, 1);
    Column status("status", DataType::kCategorical, 0);
    status.SetDictionary(fault_first
                             ? std::vector<std::string>{"fault", "ok"}
                             : std::vector<std::string>{"ok", "fault"});
    Rng rng(seed);
    for (size_t r = 0; r < n; ++r) {
      reading.Append(std::round(rng.Uniform(0, 100) * 10) / 10);
      bool fault = rng.Uniform(0, 1) < 0.2;
      // Code of the chosen string under THIS table's dictionary order.
      status.Append(fault == fault_first ? 0.0 : 1.0);
    }
    t.AddColumn(std::move(reading));
    t.AddColumn(std::move(status));
    return t;
  };
  // Base: "ok" interned first (80% of rows). Batch: "fault" first.
  Table base = make(8000, /*fault_first=*/false, 5);
  Table batch = make(2000, /*fault_first=*/true, 6);
  ASSERT_NE(base.column(1).dictionary(), batch.column(1).dictionary());

  DbOptions options;
  options.synopsis.sample_size = 0;  // every row; exact counts per bin
  auto db = Db::FromTable(std::move(base), options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Append(batch).ok());

  const char* sql =
      "SELECT COUNT(reading) FROM sensors WHERE status = 'fault';";
  auto approx = db->ExecuteSql(sql);
  auto exact = db->ExecuteExactSql(sql);
  ASSERT_TRUE(approx.ok() && exact.ok());
  // ~20% of 10000 rows; a code-domain mix-up would put the batch's
  // 'fault' rows (interned as code 0 there) under 'ok' instead.
  EXPECT_NEAR(approx->Scalar().estimate, exact->Scalar().estimate,
              0.02 * 10000);
}

TEST_F(ApiTest, AppendSchemaMismatchRejected) {
  DbOptions options;
  options.synopsis.sample_size = 2000;
  auto db = Db::FromGenerator("temp", 2000, 1, options);
  ASSERT_TRUE(db.ok());
  Table wrong = MakePower(100, 1);
  EXPECT_FALSE(db->Append(wrong).ok());
}

TEST_F(ApiTest, CompressedDbAnswersAndAppends) {
  DbOptions options;
  options.synopsis.sample_size = 8000;
  options.compress = true;
  auto db = Db::FromGenerator("power", 20000, 13, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_NE(db->compressed(), nullptr);
  EXPECT_EQ(db->compressed()->num_rows(), 20000u);

  auto r = db->ExecuteSql("SELECT COUNT(*) FROM power;");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->Scalar().estimate, 20000.0);

  Table batch = MakePower(3000, 99);
  ASSERT_TRUE(db->Append(batch).ok());
  EXPECT_EQ(db->compressed()->num_rows(), 23000u);
  auto after = db->ExecuteSql("SELECT COUNT(*) FROM power;");
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(after->Scalar().estimate, 23000.0);
}

TEST_F(ApiTest, BackendSwap) {
  DbOptions options;
  options.synopsis.sample_size = 8000;
  auto db = Db::FromGenerator("power", 30000, 21, options);
  ASSERT_TRUE(db.ok());
  const char* sql = "SELECT COUNT(voltage) FROM power WHERE voltage > 238;";

  auto ph_result = db->ExecuteSql(sql);
  ASSERT_TRUE(ph_result.ok());

  // Swap in the sampling baseline behind the same interface.
  auto sampling = db->MakeBaselineBackend("sampling", 5000, 3);
  ASSERT_TRUE(sampling.ok()) << sampling.status().ToString();
  ASSERT_TRUE(db->SetBackend(std::move(sampling).value()).ok());
  ASSERT_NE(db->backend(), nullptr);
  EXPECT_EQ(db->backend()->name(), "Sampling");

  auto prepared = db->Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared->compiled());  // backend path, no compiled plan
  auto sampled = prepared->Execute();
  ASSERT_TRUE(sampled.ok());
  // Both methods estimate the same quantity within loose agreement.
  EXPECT_NEAR(sampled->Scalar().estimate, ph_result->Scalar().estimate,
              0.25 * ph_result->Scalar().estimate + 50.0);

  // Direct injection of a caller-built AqpMethod also works.
  ASSERT_TRUE(db->SetBackend(std::make_unique<SamplingAqp>(
                                 *db->table(), 4000, 5))
                  .ok());
  auto injected = db->ExecuteSql(sql);
  ASSERT_TRUE(injected.ok());

  // Restoring the built-in engine restores the compiled hot path.
  db->ResetBackend();
  EXPECT_EQ(db->backend(), nullptr);
  auto back = db->Prepare(sql);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->compiled());
  auto back_result = back->Execute();
  ASSERT_TRUE(back_result.ok());
  EXPECT_DOUBLE_EQ(back_result->Scalar().estimate,
                   ph_result->Scalar().estimate);
}

TEST_F(ApiTest, KeepTableFalseDropsExactFallback) {
  DbOptions options;
  options.synopsis.sample_size = 2000;
  options.keep_table = false;
  auto db = Db::FromGenerator("temp", 4000, 2, options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->table(), nullptr);
  auto approx = db->ExecuteSql("SELECT COUNT(*) FROM temp;");
  ASSERT_TRUE(approx.ok());
  auto exact = db->ExecuteExactSql("SELECT COUNT(*) FROM temp;");
  EXPECT_EQ(exact.status().code(), StatusCode::kUnsupported);
  auto backend = db->MakeBaselineBackend("sampling", 100);
  EXPECT_EQ(backend.status().code(), StatusCode::kUnsupported);
}

TEST_F(ApiTest, PreparedSurvivesDbMove) {
  DbOptions options;
  options.synopsis.sample_size = 2000;
  auto built = Db::FromGenerator("temp", 4000, 9, options);
  ASSERT_TRUE(built.ok());
  auto prepared = built->Prepare("SELECT COUNT(*) FROM temp;");
  ASSERT_TRUE(prepared.ok());
  auto expected = prepared->Execute();
  ASSERT_TRUE(expected.ok());

  Db moved = std::move(built).value();
  auto after = prepared->Execute();
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(after->Scalar().estimate, expected->Scalar().estimate);
  auto exact = prepared->ExecuteExact();
  ASSERT_TRUE(exact.ok());
}

// The engine-level compile/execute split that Prepare builds on.
TEST(CompiledQueryTest, CompileExecuteMatchesDirectExecute) {
  Table table = MakePower(30000, 17);
  PairwiseHistConfig cfg;
  cfg.sample_size = 10000;
  auto ph = PairwiseHist::BuildFromTable(table, cfg);
  ASSERT_TRUE(ph.ok());
  AqpEngine engine(&ph.value());

  for (const char* sql : kWorkload) {
    auto q = ParseSql(sql);
    ASSERT_TRUE(q.ok()) << sql;
    auto plan = engine.Compile(q.value());
    ASSERT_TRUE(plan.ok()) << sql;
    auto from_plan = engine.Execute(plan.value());
    auto direct = engine.Execute(q.value());
    ASSERT_TRUE(from_plan.ok() && direct.ok()) << sql;
    ExpectSameResult(from_plan.value(), direct.value(), sql);
  }
}

TEST(CompiledQueryTest, PlanIntrospection) {
  Table table = MakePower(20000, 19);
  PairwiseHistConfig cfg;
  cfg.sample_size = 8000;
  auto ph = PairwiseHist::BuildFromTable(table, cfg);
  ASSERT_TRUE(ph.ok());
  AqpEngine engine(&ph.value());

  auto q = ParseSql(
      "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;");
  ASSERT_TRUE(q.ok());
  auto plan = engine.Compile(q.value());
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->grouped());
  EXPECT_EQ(plan->func(), AggFunc::kAvg);

  auto grouped = engine.Compile(
      ParseSql("SELECT COUNT(*) FROM power GROUP BY day_of_week;").value());
  ASSERT_TRUE(grouped.ok());
  EXPECT_TRUE(grouped->grouped());
}

TEST(CompiledQueryTest, CompileRejectsUnknownColumn) {
  Table table = MakeTemp(2000, 1);
  PairwiseHistConfig cfg;
  cfg.sample_size = 2000;
  auto ph = PairwiseHist::BuildFromTable(table, cfg);
  ASSERT_TRUE(ph.ok());
  AqpEngine engine(&ph.value());
  auto plan = engine.Compile(
      ParseSql("SELECT AVG(nope) FROM temp;").value());
  EXPECT_FALSE(plan.ok());
}

}  // namespace
}  // namespace pairwisehist
