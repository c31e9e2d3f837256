// Serving-layer validation (src/serve/): snapshot-isolated concurrent
// reads under appends (bit-equality against per-epoch replay), plan-cache
// hits and epoch invalidation, concurrent and pipelined execution
// identical to plain execution, JSON parse/format, and full HTTP
// round-trips including error statuses. The reader/writer tests are the designated TSan
// workload for the serve subsystem.
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "datagen/datasets.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/plan_cache.h"
#include "serve/service.h"
#include "serve/serving_db.h"
#include "storage/csv.h"

namespace pairwisehist {
namespace {

// Bit-equality of results: identical labels and identical doubles (NaN
// matches NaN — empty selections are NaN by contract).
void ExpectBitEqual(const QueryResult& a, const QueryResult& b,
                    const std::string& context) {
  ASSERT_EQ(a.groups.size(), b.groups.size()) << context;
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].label, b.groups[g].label) << context;
    EXPECT_EQ(a.groups[g].agg.empty_selection, b.groups[g].agg.empty_selection)
        << context;
    const double av[3] = {a.groups[g].agg.estimate, a.groups[g].agg.lower,
                          a.groups[g].agg.upper};
    const double bv[3] = {b.groups[g].agg.estimate, b.groups[g].agg.lower,
                          b.groups[g].agg.upper};
    for (int k = 0; k < 3; ++k) {
      const bool both_nan = std::isnan(av[k]) && std::isnan(bv[k]);
      EXPECT_TRUE(both_nan || av[k] == bv[k])
          << context << " group " << g << " field " << k << ": " << av[k]
          << " vs " << bv[k];
    }
  }
}

const std::vector<std::string>& ServeSqls() {
  static const std::vector<std::string> kSqls = {
      "SELECT COUNT(*) FROM power;",
      "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
      "SELECT SUM(global_active_power) FROM power WHERE hour >= 18;",
      "SELECT COUNT(voltage) FROM power WHERE voltage > 240;",
      "SELECT AVG(voltage) FROM power WHERE hour < 6;",
      "SELECT MIN(voltage) FROM power WHERE hour = 3;",
      "SELECT AVG(global_intensity) FROM power WHERE day_of_week < 6;",
      "SELECT COUNT(voltage) FROM power WHERE hour < 4 OR hour > 20;",
  };
  return kSqls;
}

Db MakePowerDb(size_t rows, size_t segment_rows = 0) {
  DbOptions options;
  options.target_segment_rows = segment_rows;
  auto db = Db::FromGenerator("power", rows, 7, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// ---------------------------------------------------------------------------
// JSON

TEST(ServeJson, ParsesDocuments) {
  auto doc = ParseJson(
      " {\"sql\": \"SELECT\\n\\\"x\\\"\", \"n\": -1.5e2, \"b\": true, "
      "\"list\": [1, \"two\", null], \"nested\": {\"k\": false}} ");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue& v = doc.value();
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  ASSERT_NE(v.Find("sql"), nullptr);
  EXPECT_EQ(v.Find("sql")->str, "SELECT\n\"x\"");
  EXPECT_EQ(v.Find("n")->number, -150.0);
  EXPECT_TRUE(v.Find("b")->boolean);
  ASSERT_EQ(v.Find("list")->items.size(), 3u);
  EXPECT_EQ(v.Find("list")->items[1].str, "two");
  EXPECT_EQ(v.Find("list")->items[2].type, JsonValue::Type::kNull);
  EXPECT_EQ(v.Find("nested")->Find("k")->boolean, false);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(ServeJson, ParsesUnicodeEscapes) {
  auto doc = ParseJson("{\"s\": \"a\\u00e9\\ud83d\\ude00b\"}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().Find("s")->str, "a\xc3\xa9\xf0\x9f\x98\x80"
                                        "b");
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("{\"a\": 1,}").ok());
  EXPECT_FALSE(ParseJson("[1, 2").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
}

TEST(ServeJson, FormatsNumbersAndStrings) {
  std::string out;
  AppendJsonNumber(&out, 0.1);
  AppendJsonNumber(&out, std::nan(""));
  EXPECT_EQ(out, "0.1null");
  // Numbers are written shortest round-trip; a longer spelling of the same
  // double still parses back to it.
  auto parsed = ParseJson("0.10000000000000001");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().number, 0.1);

  out.clear();
  AppendJsonString(&out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");

  QueryResult r;
  r.groups.resize(1);
  r.groups[0].agg.estimate = 2.5;
  r.groups[0].agg.lower = 2.0;
  r.groups[0].agg.upper = 3.0;
  out.clear();
  AppendQueryResult(&out, r);
  EXPECT_EQ(out,
            "{\"groups\":[{\"label\":\"\",\"estimate\":2.5,\"lower\":2,"
            "\"upper\":3,\"empty\":false}]}");
}

// AppendJsonNumber -> ParseJson is the identity on every finite double,
// down to the bit (sign of zero, subnormals, the largest finite values).
TEST(ServeJson, NumbersRoundTripBitExactly) {
  auto bits = [](double d) {
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      DBL_MIN,
      -DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      DBL_EPSILON,
      9007199254740992.0,  // 2^53
      -9007199254740991.0,
      0.1,
      0.2,
      0.3,
      1.1,
      -2.675,
      1e21,
      1e-7,
      123456.789,
  };
  for (int e = 0; e <= 53; ++e) values.push_back(std::ldexp(1.0, e) - 1);
  std::mt19937_64 rng(20240611);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t u = rng();
    double d = 0;
    std::memcpy(&d, &u, sizeof(d));
    values.push_back(d);
  }
  size_t finite = 0;
  std::string out;
  for (const double v : values) {
    out.clear();
    AppendJsonNumber(&out, v);
    if (!std::isfinite(v)) {
      EXPECT_EQ(out, "null");
      continue;
    }
    ++finite;
    auto parsed = ParseJson(out);
    ASSERT_TRUE(parsed.ok()) << out << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed->type, JsonValue::Type::kNumber) << out;
    ASSERT_EQ(bits(parsed->number), bits(v)) << out;
  }
  EXPECT_GT(finite, 99000u);
  out.clear();
  AppendJsonNumber(&out, std::numeric_limits<double>::infinity());
  AppendJsonNumber(&out, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "nullnull");
}

// Numbers follow the JSON grammar: no leading '+', no leading zeros, digits
// on both sides of '.', and no magnitude beyond DBL_MAX. A magnitude below
// the smallest subnormal reads as a zero of the same sign.
TEST(ServeJson, NumbersFollowTheJsonGrammar) {
  for (const char* bad :
       {"+1", "01", "-01", "1.", ".5", "-", "-.5", "1e", "1e+", "1.e3",
        "1.2.3", "1e5e2", "0x10", "1e99999", "-1e99999", "1e309",
        "[1, +2]", "{\"a\": 00}"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
  auto number = [](const char* text) {
    auto parsed = ParseJson(text);
    EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    return parsed.ok() ? parsed->number : std::nan("");
  };
  EXPECT_EQ(number("0"), 0.0);
  EXPECT_TRUE(std::signbit(number("-0")));
  EXPECT_EQ(number("-1.5e2"), -150.0);
  EXPECT_EQ(number("1E+2"), 100.0);
  EXPECT_EQ(number("25e-2"), 0.25);
  EXPECT_EQ(number("0.001"), 0.001);
  EXPECT_EQ(number("1e308"), 1e308);
  EXPECT_EQ(number("123456789012345678901234567890"), 1.2345678901234568e29);
  EXPECT_EQ(number("1e-99999"), 0.0);
  EXPECT_FALSE(std::signbit(number("1e-99999")));
  EXPECT_TRUE(std::signbit(number("-1e-99999")));
  EXPECT_EQ(number("-1e-99999"), 0.0);
  EXPECT_EQ(number("4.9e-324"), std::numeric_limits<double>::denorm_min());
}

// ---------------------------------------------------------------------------
// Db::WithAppended (copy-on-append snapshots)

TEST(WithAppended, MatchesInPlaceAppendAndLeavesBaseUntouched) {
  Db base = MakePowerDb(12000, 5000);
  auto batch = MakeDataset("power", 3000, 99);
  ASSERT_TRUE(batch.ok());

  // Reference: a second identical Db appended in place.
  Db inplace = MakePowerDb(12000, 5000);
  ASSERT_TRUE(inplace.Append(batch.value()).ok());

  auto appended = base.WithAppended(batch.value());
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();

  EXPECT_EQ(base.total_rows(), 12000u);
  EXPECT_EQ(appended->total_rows(), 15000u);
  EXPECT_EQ(appended->num_segments(), inplace.num_segments());

  for (const std::string& sql : ServeSqls()) {
    auto from_snapshot = appended->ExecuteSql(sql);
    auto from_inplace = inplace.ExecuteSql(sql);
    ASSERT_TRUE(from_snapshot.ok()) << sql;
    ASSERT_TRUE(from_inplace.ok()) << sql;
    ExpectBitEqual(from_snapshot.value(), from_inplace.value(), sql);
  }
  // The raw table came along, so exact execution still works post-append.
  auto exact = appended->ExecuteExactSql("SELECT COUNT(*) FROM power;");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->Scalar().estimate, 15000.0);
}

// ---------------------------------------------------------------------------
// PlanCache

TEST(PlanCache, HitsMissesAndEpochInvalidation) {
  auto snap0 = std::make_shared<const DbSnapshot>(MakePowerDb(8000), 0);
  PlanCache cache(/*capacity=*/64, /*shards=*/4);

  bool hit = true;
  auto pq = cache.Get(snap0, "SELECT AVG(voltage) FROM power;", &hit);
  ASSERT_TRUE(pq.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 1u);

  // Same statement, same snapshot: hit. Normalization folds syntactic
  // variants onto the same entry.
  auto again =
      cache.Get(snap0, "select avg( voltage ) from power ;", &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.size(), 1u);

  QueryResult direct_result, cached_result;
  ASSERT_TRUE(snap0->db.ExecuteSql("SELECT AVG(voltage) FROM power;").ok());
  ASSERT_TRUE(again.value()->ExecuteInto(&cached_result).ok());
  auto direct = snap0->db.ExecuteSql("SELECT AVG(voltage) FROM power;");
  ASSERT_TRUE(direct.ok());
  ExpectBitEqual(cached_result, direct.value(), "cached vs direct");

  // New epoch: the same SQL misses, re-prepares against the new snapshot,
  // and replaces the entry (the cache never grows stale duplicates).
  auto batch = MakeDataset("power", 1000, 3);
  ASSERT_TRUE(batch.ok());
  auto next = snap0->db.WithAppended(batch.value());
  ASSERT_TRUE(next.ok());
  auto snap1 =
      std::make_shared<const DbSnapshot>(std::move(next).value(), 1);
  auto fresh = cache.Get(snap1, "SELECT AVG(voltage) FROM power;", &hit);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 1u);
  QueryResult r1;
  ASSERT_TRUE(fresh.value()->ExecuteInto(&r1).ok());
  auto direct1 = snap1->db.ExecuteSql("SELECT AVG(voltage) FROM power;");
  ASSERT_TRUE(direct1.ok());
  ExpectBitEqual(r1, direct1.value(), "post-append cached vs direct");

  // Parse failures surface, not cached.
  auto bad = cache.Get(snap1, "SELEC nonsense;", &hit);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  auto snap = std::make_shared<const DbSnapshot>(MakePowerDb(6000), 0);
  PlanCache cache(/*capacity=*/2, /*shards=*/1);
  bool hit = false;
  ASSERT_TRUE(cache.Get(snap, ServeSqls()[0], &hit).ok());
  ASSERT_TRUE(cache.Get(snap, ServeSqls()[1], &hit).ok());
  // Touch [0] so [1] is the LRU victim when [2] arrives.
  ASSERT_TRUE(cache.Get(snap, ServeSqls()[0], &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(cache.Get(snap, ServeSqls()[2], &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.Get(snap, ServeSqls()[0], &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(cache.Get(snap, ServeSqls()[1], &hit).ok());
  EXPECT_FALSE(hit);  // was evicted
}

// ---------------------------------------------------------------------------
// ServingDb: concurrent queries == plain Db, and stats accounting.

TEST(ServingDbTest, ConcurrentQueriesMatchPlainExecution) {
  const std::vector<std::string>& sqls = ServeSqls();
  Db reference = MakePowerDb(20000, 8000);

  ServingOptions options;
  ServingDb serving(MakePowerDb(20000, 8000), options);

  std::vector<QueryResult> reference_results(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto r = reference.ExecuteSql(sqls[i]);
    ASSERT_TRUE(r.ok()) << sqls[i];
    reference_results[i] = std::move(r).value();
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  std::vector<std::thread> threads;
  std::mutex failures_mu;
  std::vector<std::string> failures;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t qi = static_cast<size_t>(t + i) % sqls.size();
        QueryResult result;
        uint64_t epoch = 123;
        Status st = serving.Query(sqls[qi], &result, &epoch);
        if (!st.ok() || epoch != 0) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back(sqls[qi] + ": " + st.ToString());
          continue;
        }
        const QueryResult& want = reference_results[qi];
        bool equal = want.groups.size() == result.groups.size();
        for (size_t g = 0; equal && g < want.groups.size(); ++g) {
          equal = want.groups[g].label == result.groups[g].label &&
                  want.groups[g].agg.estimate == result.groups[g].agg.estimate &&
                  want.groups[g].agg.lower == result.groups[g].agg.lower &&
                  want.groups[g].agg.upper == result.groups[g].agg.upper;
        }
        if (!equal) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back(sqls[qi] + ": result differs");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(failures.empty()) << failures.size() << " failures, first: "
                                << failures.front();

  const ServingStats stats = serving.Stats();
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kThreads * kIters));
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
  EXPECT_GE(stats.cache_hits, stats.queries - 8 * sqls.size());
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.epoch, 0u);
}

// N reader threads race a writer that appends batches; every response
// must be bit-identical to single-threaded replay of the epoch it reports
// (no torn reads, no mixed-epoch batches). This is the core TSan workload.
TEST(ServingDbTest, SnapshotIsolationUnderConcurrentAppends) {
  const std::vector<std::string>& sqls = ServeSqls();
  constexpr size_t kBaseRows = 16000;
  constexpr size_t kSegmentRows = 8000;
  constexpr int kAppends = 3;
  constexpr size_t kBatchRows = 2000;

  std::vector<Table> batches;
  for (int k = 0; k < kAppends; ++k) {
    auto b = MakeDataset("power", kBatchRows, 1000 + k);
    ASSERT_TRUE(b.ok());
    batches.push_back(std::move(b).value());
  }

  ServingDb serving(MakePowerDb(kBaseRows, kSegmentRows));

  struct Record {
    uint64_t epoch;
    size_t qi;
    QueryResult result;
  };
  std::mutex records_mu;
  std::vector<Record> records;
  std::atomic<bool> writer_done{false};

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      size_t i = 0;
      // Keep reading until the writer finishes, then drain to a statement
      // boundary so queries also land on the final epoch.
      while (true) {
        const bool done = writer_done.load(std::memory_order_acquire);
        const size_t qi = (static_cast<size_t>(t) + i++) % sqls.size();
        Record rec;
        rec.qi = qi;
        Status st = serving.Query(sqls[qi], &rec.result, &rec.epoch);
        ASSERT_TRUE(st.ok()) << sqls[qi];
        {
          std::lock_guard<std::mutex> lock(records_mu);
          records.push_back(std::move(rec));
        }
        if (done && i % sqls.size() == 0) break;
      }
    });
  }

  std::thread writer([&] {
    for (const Table& batch : batches) {
      ASSERT_TRUE(serving.Append(batch).ok());
    }
    writer_done.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& t : readers) t.join();

  const ServingStats stats = serving.Stats();
  EXPECT_EQ(stats.appends, static_cast<uint64_t>(kAppends));
  EXPECT_EQ(stats.epoch, static_cast<uint64_t>(kAppends));
  EXPECT_EQ(stats.rows, kBaseRows + kAppends * kBatchRows);

  // Single-threaded replay: rebuild every epoch deterministically and
  // check each recorded response bit-equals its epoch's answer.
  std::vector<Db> replay;
  replay.push_back(MakePowerDb(kBaseRows, kSegmentRows));
  for (int k = 0; k < kAppends; ++k) {
    auto next = replay.back().WithAppended(batches[static_cast<size_t>(k)]);
    ASSERT_TRUE(next.ok());
    replay.push_back(std::move(next).value());
  }
  std::vector<std::vector<QueryResult>> expected(replay.size());
  for (size_t e = 0; e < replay.size(); ++e) {
    for (const std::string& sql : sqls) {
      auto r = replay[e].ExecuteSql(sql);
      ASSERT_TRUE(r.ok());
      expected[e].push_back(std::move(r).value());
    }
  }
  ASSERT_FALSE(records.empty());
  for (const Record& rec : records) {
    ASSERT_LT(rec.epoch, replay.size());
    ExpectBitEqual(rec.result, expected[rec.epoch][rec.qi],
                   sqls[rec.qi] + " @epoch " + std::to_string(rec.epoch));
  }
}

// The plan-cache key is Query::ToSql, which must keep literals that differ
// past ten significant digits apart: each statement answers exactly as a
// fresh Db::ExecuteSql of its own text, whichever was cached first.
TEST(ServingDbTest, LiteralsPastTenDigitsDoNotShareAPlan) {
  ServingDb serving(MakePowerDb(8000));
  const std::string whole =
      "SELECT COUNT(*) FROM power WHERE timestamp < 1578000000;";
  const std::string frac =
      "SELECT COUNT(*) FROM power WHERE timestamp < 1578000000.4;";
  auto snap = serving.snapshot();
  auto want_whole = snap->db.ExecuteSql(whole);
  auto want_frac = snap->db.ExecuteSql(frac);
  ASSERT_TRUE(want_whole.ok() && want_frac.ok());
  ASSERT_NE(want_whole->Scalar().estimate, want_frac->Scalar().estimate);

  QueryResult got;
  for (const std::string* sql : {&whole, &frac, &whole, &frac}) {
    ASSERT_TRUE(serving.Query(*sql, &got).ok()) << *sql;
    ExpectBitEqual(got, sql == &whole ? *want_whole : *want_frac, *sql);
  }
  EXPECT_EQ(serving.Stats().cache_entries, 2u);
}

TEST(ServingDbTest, QueryBatchAndTakeDb) {
  ServingDb serving(MakePowerDb(10000));
  std::vector<std::string> sqls = {ServeSqls()[0], "BROKEN SQL",
                                   ServeSqls()[1]};
  std::vector<QueryResult> results;
  std::vector<Status> statement_status;
  uint64_t epoch = 9;
  ASSERT_TRUE(
      serving.QueryBatch(sqls, &results, &statement_status, &epoch).ok());
  EXPECT_EQ(epoch, 0u);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(statement_status[0].ok());
  EXPECT_FALSE(statement_status[1].ok());
  EXPECT_TRUE(statement_status[2].ok());
  EXPECT_EQ(results[0].Scalar().estimate, 10000.0);

  {
    // An outstanding snapshot reference blocks TakeDb.
    std::shared_ptr<const DbSnapshot> pinned = serving.snapshot();
    auto blocked = serving.TakeDb();
    EXPECT_FALSE(blocked.ok());
    EXPECT_EQ(blocked.status().code(), StatusCode::kUnsupported);
  }
  auto taken = serving.TakeDb();
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(taken->total_rows(), 10000u);
}

// Default ServingOptions batch a pipelined /query burst: the whole burst
// runs as one QueryBatch, and every response byte-equals what the
// single-request handler answers for the same request.
TEST(ServingDbTest, DefaultOptionsBatchPipelinedBurst) {
  ServingDb serving(MakePowerDb(12000, 6000));
  HttpServer::Handler handler = MakeServingHandler(&serving);
  HttpServer::BatchHandler batch_handler = MakeServingBatchHandler(&serving);
  std::vector<HttpRequest> burst;
  for (const std::string& sql : ServeSqls()) {
    HttpRequest req;
    req.method = "POST";
    req.path = "/query";
    req.body = "{\"sql\":";
    AppendJsonString(&req.body, sql);
    req.body += "}";
    burst.push_back(std::move(req));
  }

  const ServingStats before = serving.Stats();
  const std::vector<HttpResponse> out = batch_handler(burst);
  const ServingStats after = serving.Stats();
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.batch_statements - before.batch_statements, burst.size());
  EXPECT_EQ(after.queries, before.queries);

  ASSERT_EQ(out.size(), burst.size());
  for (size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(out[i].status, 200) << out[i].body;
    EXPECT_EQ(out[i].body, handler(burst[i]).body) << "burst position " << i;
  }
}

// ---------------------------------------------------------------------------
// HTTP round-trip

class HttpRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    serving_ = std::make_unique<ServingDb>(MakePowerDb(12000, 6000));
    server_ = std::make_unique<HttpServer>(
        MakeServingHandler(serving_.get()),
        MakeServingBatchHandler(serving_.get()));
    ASSERT_TRUE(server_->Start(0).ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }
  void TearDown() override { server_->Stop(); }

  std::unique_ptr<ServingDb> serving_;
  std::unique_ptr<HttpServer> server_;
  HttpClient client_;
};

TEST_F(HttpRoundTrip, QueryMatchesDirectExecutionBitExactly) {
  const std::string sql = ServeSqls()[1];
  std::string body = "{\"sql\":";
  AppendJsonString(&body, sql);
  body += "}";
  auto resp = client_.Request("POST", "/query", body);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);

  // The response must byte-equal locally formatting the direct answer —
  // same numbers through the same shortest round-trip formatter.
  QueryResult direct;
  uint64_t epoch = 0;
  ASSERT_TRUE(serving_->Query(sql, &direct, &epoch).ok());
  std::string want = "{\"epoch\":0,\"result\":";
  AppendQueryResult(&want, direct);
  want += "}";
  EXPECT_EQ(resp->body, want);

  // Keep-alive: the same connection serves a second request.
  auto resp2 = client_.Request("POST", "/query", body);
  ASSERT_TRUE(resp2.ok());
  EXPECT_EQ(resp2->body, want);
}

TEST_F(HttpRoundTrip, PipelinedBurstMatchesSequentialResponses) {
  // A pipelined burst batch-executes on the connection thread (see
  // MakeServingBatchHandler); responses must come back in order and
  // byte-equal the sequential single-request path.
  std::vector<std::string> bodies;
  std::vector<std::string> want;
  for (const std::string& sql : ServeSqls()) {
    std::string body = "{\"sql\":";
    AppendJsonString(&body, sql);
    body += "}";
    bodies.push_back(body);
    QueryResult direct;
    uint64_t epoch = 0;
    ASSERT_TRUE(serving_->Query(sql, &direct, &epoch).ok());
    std::string w = "{\"epoch\":0,\"result\":";
    AppendQueryResult(&w, direct);
    w += "}";
    want.push_back(w);
  }
  // A broken statement mid-burst gets its 400 in exactly that slot
  // without disturbing its neighbours.
  bodies.insert(bodies.begin() + 3, "{\"sql\":\"BROKEN\"}");

  auto resps = client_.RequestPipelined("POST", "/query", bodies);
  ASSERT_TRUE(resps.ok()) << resps.status().ToString();
  ASSERT_EQ(resps->size(), bodies.size());
  size_t wi = 0;
  for (size_t i = 0; i < resps->size(); ++i) {
    if (i == 3) {
      EXPECT_EQ((*resps)[i].status, 400);
      continue;
    }
    EXPECT_EQ((*resps)[i].status, 200) << (*resps)[i].body;
    EXPECT_EQ((*resps)[i].body, want[wi++]) << "burst position " << i;
  }

  // The connection stays usable for plain requests afterwards.
  auto after = client_.Request("POST", "/query", bodies[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->body, want[0]);
}

TEST_F(HttpRoundTrip, BatchAppendStatsAndErrors) {
  // Batch with one broken statement: 200 with an inline error object.
  auto batch_resp = client_.Request(
      "POST", "/batch",
      "{\"sqls\":[\"SELECT COUNT(*) FROM power;\",\"NOT SQL\"]}");
  ASSERT_TRUE(batch_resp.ok());
  EXPECT_EQ(batch_resp->status, 200);
  auto batch_doc = ParseJson(batch_resp->body);
  ASSERT_TRUE(batch_doc.ok()) << batch_resp->body;
  const JsonValue* results = batch_doc.value().Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items.size(), 2u);
  EXPECT_EQ(results->items[0].Find("groups")->items[0].Find("estimate")->number,
            12000.0);
  ASSERT_NE(results->items[1].Find("error"), nullptr);

  // Append 1500 fresh rows as CSV; epoch bumps and COUNT(*) sees them.
  auto fresh = MakeDataset("power", 1500, 321);
  ASSERT_TRUE(fresh.ok());
  auto append_resp = client_.Request("POST", "/append",
                                     ToCsvString(fresh.value()), "text/csv");
  ASSERT_TRUE(append_resp.ok());
  ASSERT_EQ(append_resp->status, 200) << append_resp->body;
  auto append_doc = ParseJson(append_resp->body);
  ASSERT_TRUE(append_doc.ok());
  EXPECT_EQ(append_doc.value().Find("epoch")->number, 1.0);
  EXPECT_EQ(append_doc.value().Find("rows")->number, 13500.0);

  auto count_resp = client_.Request(
      "POST", "/query", "{\"sql\":\"SELECT COUNT(*) FROM power;\"}");
  ASSERT_TRUE(count_resp.ok());
  auto count_doc = ParseJson(count_resp->body);
  ASSERT_TRUE(count_doc.ok());
  EXPECT_EQ(count_doc.value().Find("epoch")->number, 1.0);
  EXPECT_EQ(count_doc.value()
                .Find("result")
                ->Find("groups")
                ->items[0]
                .Find("estimate")
                ->number,
            13500.0);

  // Stats reflect the traffic.
  auto stats_resp = client_.Request("GET", "/stats");
  ASSERT_TRUE(stats_resp.ok());
  auto stats_doc = ParseJson(stats_resp->body);
  ASSERT_TRUE(stats_doc.ok());
  EXPECT_EQ(stats_doc.value().Find("appends")->number, 1.0);
  EXPECT_GE(stats_doc.value().Find("queries")->number, 1.0);
  EXPECT_EQ(stats_doc.value().Find("segments")->number, 3.0);

  // Error statuses: bad SQL 400, malformed JSON 400, bad CSV 400,
  // unknown path 404, wrong method 405.
  auto bad_sql = client_.Request("POST", "/query",
                                 "{\"sql\":\"SELECT nope FROM power;\"}");
  ASSERT_TRUE(bad_sql.ok());
  EXPECT_EQ(bad_sql->status, 400);
  auto bad_json = client_.Request("POST", "/query", "not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status, 400);
  auto bad_csv = client_.Request("POST", "/append", "wrong,schema\n1,2\n",
                                 "text/csv");
  ASSERT_TRUE(bad_csv.ok());
  EXPECT_EQ(bad_csv->status, 400);
  auto not_found = client_.Request("GET", "/nope");
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->status, 404);
  auto wrong_method = client_.Request("GET", "/query");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);
}

TEST_F(HttpRoundTrip, ConcurrentClientsWithConcurrentAppends) {
  constexpr int kClients = 4;
  constexpr int kIters = 20;
  const std::vector<std::string>& sqls = ServeSqls();
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        bad.fetch_add(1);
        return;
      }
      for (int i = 0; i < kIters; ++i) {
        std::string body = "{\"sql\":";
        AppendJsonString(&body, sqls[static_cast<size_t>(t + i) % sqls.size()]);
        body += "}";
        auto resp = client.Request("POST", "/query", body);
        if (!resp.ok() || resp->status != 200) bad.fetch_add(1);
      }
    });
  }
  auto fresh = MakeDataset("power", 1000, 555);
  ASSERT_TRUE(fresh.ok());
  const std::string csv = ToCsvString(fresh.value());
  for (int k = 0; k < 2; ++k) {
    auto resp = client_.Request("POST", "/append", csv, "text/csv");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 200) << resp->body;
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  const ServingStats stats = serving_->Stats();
  EXPECT_EQ(stats.appends, 2u);
  EXPECT_EQ(stats.errors, 0u);
}

}  // namespace
}  // namespace pairwisehist
