// Segment lifecycle validation: the tiered compaction policy must pick
// deterministically (adjacency, tier bounds, output caps, error ranking,
// quarantine priority), Db must apply specs in place without invalidating
// prepared statements, sustained append traffic must converge to a bounded
// segment count whose answers agree with a freshly built synopsis over the
// same rows, ServingDb must publish compaction swaps concurrently with
// readers and replay its event log bit-identically, quarantine must drain
// through WAL-retained rows, and a crash at every compaction failpoint
// must recover a consistent pre-compaction state.
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "common/failpoint.h"
#include "core/pws3.h"
#include "datagen/datasets.h"
#include "serve/serving_db.h"
#include "storage/compactor.h"
#include "storage/table.h"

namespace pairwisehist {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveDirIfPresent(const std::string& dir) {
  for (const char* f : {"wal.log", "ack.log"}) {
    ::unlink((dir + "/" + f).c_str());
  }
  for (uint64_t e = 0; e < 128; ++e) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%020llu",
                  static_cast<unsigned long long>(e));
    for (const char* suffix : {".pws2", ".pws2.tmp", ".pws3", ".pws3.tmp"}) {
      ::unlink((dir + "/checkpoint-" + buf + suffix).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

Table MakeBatch(size_t rows, int i) {
  auto batch = MakeDataset("power", rows, 3000 + i);
  EXPECT_TRUE(batch.ok());
  return std::move(batch).value();
}

const std::vector<std::string>& LifecycleSqls() {
  static const std::vector<std::string> kSqls = {
      "SELECT COUNT(*) FROM power;",
      "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
      "SELECT SUM(voltage) FROM power WHERE hour < 6;",
      "SELECT AVG(global_intensity) FROM power WHERE day_of_week < 6;",
  };
  return kSqls;
}

void ExpectBitEqual(const QueryResult& a, const QueryResult& b,
                    const std::string& context) {
  ASSERT_EQ(a.groups.size(), b.groups.size()) << context;
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].label, b.groups[g].label) << context;
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

/// Two CI answers for the same question must claim overlapping truth.
void ExpectIntervalsOverlap(const QueryResult& a, const QueryResult& b,
                            const std::string& context) {
  ASSERT_EQ(a.groups.size(), 1u) << context;
  ASSERT_EQ(b.groups.size(), 1u) << context;
  const auto& ga = a.groups[0].agg;
  const auto& gb = b.groups[0].agg;
  ASSERT_FALSE(ga.empty_selection) << context;
  ASSERT_FALSE(gb.empty_selection) << context;
  EXPECT_LE(ga.lower, gb.upper) << context;
  EXPECT_LE(gb.lower, ga.upper) << context;
}

/// Standard lifecycle knobs for tests: small tiers so merges trigger on
/// test-sized segments.
CompactionOptions TestCompaction() {
  CompactionOptions c;
  c.enabled = true;
  c.tier0_rows = 1024;
  c.tier_factor = 4;
  c.min_merge = 4;
  c.max_merge = 16;
  return c;
}

/// A Db sharded into `rows / seg_rows` equal segments (compaction off so
/// the policy under test sees the raw structure).
Db MakeSegmented(size_t rows, size_t seg_rows, uint64_t seed = 7) {
  DbOptions options;
  options.target_segment_rows = seg_rows;
  auto db = Db::FromGenerator("power", rows, seed, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// ---------------------------------------------------------------------------
// Policy units

TEST(CompactionPolicy, TierBoundariesAreGeometric) {
  CompactionOptions opts = TestCompaction();  // tier0 = 1024, factor = 4
  EXPECT_EQ(CompactionTier(0, opts), 0u);
  EXPECT_EQ(CompactionTier(1023, opts), 0u);
  EXPECT_EQ(CompactionTier(1024, opts), 1u);
  EXPECT_EQ(CompactionTier(4095, opts), 1u);
  EXPECT_EQ(CompactionTier(4096, opts), 2u);
  EXPECT_EQ(CompactionTier(16384, opts), 3u);
}

TEST(CompactionPolicy, SeedIsDeterministicAndRangeDependent) {
  const uint64_t s = CompactionSeed(42, 0, 2000);
  EXPECT_EQ(s, CompactionSeed(42, 0, 2000));
  EXPECT_NE(s, CompactionSeed(42, 0, 2001));
  EXPECT_NE(s, CompactionSeed(42, 500, 2000));
  EXPECT_NE(s, CompactionSeed(43, 0, 2000));
}

TEST(CompactionPolicy, LedgerTracksMeanAndForgets) {
  FeedbackLedger ledger;
  ledger.Record(100, 0.2);
  ledger.Record(100, 0.4);
  ledger.Record(100, -1.0);  // dropped: negative
  ledger.Record(100, std::nan(""));  // dropped: non-finite
  FeedbackLedger::Entry e = ledger.Get(100);
  EXPECT_EQ(e.samples, 2u);
  EXPECT_NEAR(e.mean_rel_width, 0.3, 1e-12);
  ledger.Record(900, 100.0);  // clamps to 16
  EXPECT_NEAR(ledger.Get(900).mean_rel_width, 16.0, 1e-12);
  ledger.Forget(0, 500);
  EXPECT_EQ(ledger.Get(100).samples, 0u);
  EXPECT_EQ(ledger.Get(900).samples, 1u);
  EXPECT_EQ(ledger.Snapshot().size(), 1u);
}

TEST(CompactionPolicy, PicksAdjacentSameTierRun) {
  Db db = MakeSegmented(4000, 500);  // 8 tier-0 segments
  CompactionOptions opts = TestCompaction();
  opts.max_merge = 4;
  auto spec = PickCompaction(db.synopses(), opts, nullptr, {});
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->row_begin, 0u);
  EXPECT_EQ(spec->row_end, 2000u);  // leftmost prefix, clipped to max_merge
  EXPECT_DOUBLE_EQ(spec->budget_boost, 1.0);
  EXPECT_FALSE(spec->quarantine_drain);
  EXPECT_EQ(CompactionBacklog(db.synopses(), opts), 8u);
}

TEST(CompactionPolicy, ShortRunsAndOverClippedRunsAreIneligible) {
  Db db = MakeSegmented(4000, 500);
  CompactionOptions opts = TestCompaction();
  opts.min_merge = 9;  // run of 8 is one short
  EXPECT_FALSE(PickCompaction(db.synopses(), opts, nullptr, {}).has_value());
  EXPECT_EQ(CompactionBacklog(db.synopses(), opts), 0u);

  opts = TestCompaction();
  opts.max_output_rows = 1000;  // clips the window below min_merge
  EXPECT_FALSE(PickCompaction(db.synopses(), opts, nullptr, {}).has_value());
}

TEST(CompactionPolicy, RebuildableGateSkipsRuns) {
  Db db = MakeSegmented(4000, 500);
  CompactionOptions opts = TestCompaction();
  auto spec = PickCompaction(db.synopses(), opts, nullptr,
                             [](uint64_t, uint64_t) { return false; });
  EXPECT_FALSE(spec.has_value());
}

TEST(CompactionPolicy, ErrorFeedbackPrefersWorstRunAndBoostsBudget) {
  // Two tier-0 runs separated by a tier-1 segment: [0, 2000) in 4 x 500,
  // one 2000-row merged segment, then [4000, 6000) in 4 x 500.
  Db db = MakeSegmented(6000, 500);
  CompactionSpec middle;
  middle.row_begin = 2000;
  middle.row_end = 4000;
  auto merged = db.CompactOnce(nullptr, &middle);
  ASSERT_TRUE(merged.ok() && merged.value());
  ASSERT_EQ(db.num_segments(), 9u);

  CompactionOptions opts = TestCompaction();
  // No feedback: leftmost run wins.
  auto spec = PickCompaction(db.synopses(), opts, nullptr, {});
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->row_begin, 0u);
  EXPECT_EQ(spec->row_end, 2000u);

  // Wide observed CIs on the right-hand run flip the pick and earn a
  // budget boost (clamped to error_boost_max).
  FeedbackLedger ledger;
  for (size_t i = 0; i < db.num_segments(); ++i) {
    const uint64_t rb = db.segment_meta(i).row_begin;
    ledger.Record(rb, rb >= 4000 ? 0.8 : 0.01);
  }
  spec = PickCompaction(db.synopses(), opts, &ledger, {});
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->row_begin, 4000u);
  EXPECT_EQ(spec->row_end, 6000u);
  EXPECT_GT(spec->budget_boost, 1.0);
  EXPECT_LE(spec->budget_boost, opts.error_boost_max);
}

// ---------------------------------------------------------------------------
// Db: in-place application

TEST(DbCompaction, CompactMergesEligibleRuns) {
  DbOptions options;
  options.target_segment_rows = 500;
  options.compact = TestCompaction();
  auto built = Db::FromGenerator("power", 4000, 7, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Db db = std::move(built).value();
  ASSERT_EQ(db.num_segments(), 8u);

  auto applied = db.Compact();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GE(applied.value(), 1u);
  EXPECT_LT(db.num_segments(), 8u);
  EXPECT_EQ(db.total_rows(), 4000u);

  // The merged synopsis still answers within CI of the exact truth.
  for (const std::string& sql : LifecycleSqls()) {
    auto pq = db.Prepare(sql);
    ASSERT_TRUE(pq.ok()) << sql;
    auto approx = pq->Execute();
    auto exact = pq->ExecuteExact();
    ASSERT_TRUE(approx.ok() && exact.ok()) << sql;
    ExpectIntervalsOverlap(approx.value(), exact.value(), sql);
  }
}

// Regression: prepared statements (run alone and as a batch) whose
// plans were compiled BEFORE a compaction must keep executing afterwards,
// and must answer exactly like a statement prepared fresh against the
// compacted structure — i.e. a cached plan never reads a retired segment.
TEST(DbCompaction, PreparedStatementsSurviveCompact) {
  DbOptions options;
  options.target_segment_rows = 500;
  options.compact = TestCompaction();
  auto built = Db::FromGenerator("power", 4000, 7, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Db db = std::move(built).value();
  ASSERT_EQ(db.num_segments(), 8u);

  auto pq = db.Prepare(LifecycleSqls()[1]);
  ASSERT_TRUE(pq.ok());
  std::vector<PreparedQuery> pb;
  for (const std::string& sql : LifecycleSqls()) {
    auto one = db.Prepare(sql);
    ASSERT_TRUE(one.ok());
    pb.push_back(std::move(one).value());
  }
  std::vector<QueryResult> batch_results;
  ASSERT_TRUE(pq->Execute().ok());  // plans compiled against 8 segments
  ASSERT_TRUE(db.ExecuteBatch(pb.data(), pb.size(), &batch_results).ok());

  auto applied = db.Compact();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_GE(applied.value(), 1u);

  // The stale plans recompile transparently; answers match fresh plans.
  auto stale = pq->Execute();
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  auto fresh_pq = db.Prepare(LifecycleSqls()[1]);
  ASSERT_TRUE(fresh_pq.ok());
  auto fresh = fresh_pq->Execute();
  ASSERT_TRUE(fresh.ok());
  ExpectBitEqual(stale.value(), fresh.value(), "prepared across compact");

  Status stale_batch = db.ExecuteBatch(pb.data(), pb.size(), &batch_results);
  ASSERT_TRUE(stale_batch.ok()) << stale_batch.ToString();
  for (size_t q = 0; q < LifecycleSqls().size(); ++q) {
    auto one = db.ExecuteSql(LifecycleSqls()[q]);
    ASSERT_TRUE(one.ok());
    ExpectBitEqual(batch_results[q], one.value(),
                   "batch across compact: " + LifecycleSqls()[q]);
  }
}

// Replaying the recorded spec sequence on an identical Db reproduces the
// exact structure and bit-identical answers (what serving recovery and
// the per-epoch replay drill rely on).
TEST(DbCompaction, SpecReplayReproducesStructure) {
  DbOptions options;
  options.target_segment_rows = 500;
  options.compact = TestCompaction();
  auto a = Db::FromGenerator("power", 4000, 7, options);
  auto b = Db::FromGenerator("power", 4000, 7, options);
  ASSERT_TRUE(a.ok() && b.ok());

  std::vector<CompactionSpec> specs;
  for (;;) {
    CompactionSpec spec;
    auto did = a->CompactOnce(&spec);
    ASSERT_TRUE(did.ok()) << did.status().ToString();
    if (!did.value()) break;
    specs.push_back(spec);
  }
  ASSERT_GE(specs.size(), 1u);

  for (const CompactionSpec& spec : specs) {
    auto did = b->CompactOnce(nullptr, &spec);
    ASSERT_TRUE(did.ok()) << did.status().ToString();
    EXPECT_TRUE(did.value());
  }
  ASSERT_EQ(a->num_segments(), b->num_segments());
  for (size_t i = 0; i < a->num_segments(); ++i) {
    EXPECT_EQ(a->segment_meta(i).row_begin, b->segment_meta(i).row_begin);
    EXPECT_EQ(a->segment_meta(i).row_end, b->segment_meta(i).row_end);
    EXPECT_EQ(a->synopsis(i).StorageBytes(), b->synopsis(i).StorageBytes());
  }
  for (const std::string& sql : LifecycleSqls()) {
    auto ra = a->ExecuteSql(sql);
    auto rb = b->ExecuteSql(sql);
    ASSERT_TRUE(ra.ok() && rb.ok()) << sql;
    ExpectBitEqual(ra.value(), rb.value(), "replay: " + sql);
  }
}

// The append soak: hundreds of small sealed appends with compaction on
// must converge to a bounded segment count, stay bit-deterministic across
// exec_threads, and answer within CI of a synopsis built fresh over the
// same rows with the same options.
TEST(DbCompaction, AppendSoakBoundsSegmentsAndPreservesAccuracy) {
  constexpr size_t kBaseRows = 2000;
  constexpr size_t kBatchRows = 200;
  constexpr int kAppends = 150;

  DbOptions options;
  options.target_segment_rows = 1000;
  options.compact = TestCompaction();

  DbOptions threaded = options;
  threaded.exec_threads = 8;

  auto built1 = Db::FromGenerator("power", kBaseRows, 7, options);
  auto built8 = Db::FromGenerator("power", kBaseRows, 7, threaded);
  ASSERT_TRUE(built1.ok() && built8.ok());
  Db db1 = std::move(built1).value();
  Db db8 = std::move(built8).value();

  // The fresh-build comparison target accumulates the identical rows.
  auto base = MakeDataset("power", kBaseRows, 7);
  ASSERT_TRUE(base.ok());
  Table all_rows = std::move(base).value();

  size_t max_segments = 0;
  for (int i = 0; i < kAppends; ++i) {
    Table batch = MakeBatch(kBatchRows, i);
    ASSERT_TRUE(db1.Append(batch).ok()) << "append " << i;
    ASSERT_TRUE(db8.Append(batch).ok()) << "append " << i;
    ASSERT_TRUE(AppendTableRows(&all_rows, batch).ok());
    max_segments = std::max(max_segments, db1.num_segments());
  }
  const size_t total = kBaseRows + kAppends * kBatchRows;
  ASSERT_EQ(db1.total_rows(), total);
  ASSERT_EQ(all_rows.NumRows(), total);

  // Bounded lifecycle: O(tiers * min_merge), nowhere near one segment per
  // append. 150 appends without compaction would leave 152 segments.
  EXPECT_LE(db1.num_segments(), 16u);
  EXPECT_LE(max_segments, 24u);

  // Bit-determinism: exec_threads never changes an answer.
  ASSERT_EQ(db1.num_segments(), db8.num_segments());
  for (const std::string& sql : LifecycleSqls()) {
    auto r1 = db1.ExecuteSql(sql);
    auto r8 = db8.ExecuteSql(sql);
    ASSERT_TRUE(r1.ok() && r8.ok()) << sql;
    ExpectBitEqual(r1.value(), r8.value(), "exec_threads: " + sql);
  }

  // Accuracy: within CI of a one-shot build over the same rows with the
  // same options (the acceptance baseline), and of the exact answer.
  auto fresh_built = Db::FromTable(std::move(all_rows), options);
  ASSERT_TRUE(fresh_built.ok()) << fresh_built.status().ToString();
  Db fresh = std::move(fresh_built).value();
  for (const std::string& sql : LifecycleSqls()) {
    auto soaked = db1.ExecuteSql(sql);
    auto target = fresh.ExecuteSql(sql);
    ASSERT_TRUE(soaked.ok() && target.ok()) << sql;
    ExpectIntervalsOverlap(soaked.value(), target.value(), "fresh: " + sql);
    // Against ground truth the CI is not a strict containment guarantee
    // for ratio aggregates, so gate on relative error instead.
    auto pq = db1.Prepare(sql);
    ASSERT_TRUE(pq.ok());
    auto exact = pq->ExecuteExact();
    ASSERT_TRUE(exact.ok());
    const double truth = exact.value().groups[0].agg.estimate;
    const double est = soaked.value().groups[0].agg.estimate;
    EXPECT_LE(std::fabs(est - truth), 0.1 * std::fabs(truth) + 1e-9)
        << "exact: " << sql;
  }
}

// Queries feed the refit ledger: after executing a workload, the touched
// segments carry feedback samples (what error-driven picking runs on).
TEST(DbCompaction, ExecutionFeedsFeedbackLedger) {
  DbOptions options;
  options.target_segment_rows = 500;
  options.compact = TestCompaction();
  auto built = Db::FromGenerator("power", 2000, 7, options);
  ASSERT_TRUE(built.ok());
  Db db = std::move(built).value();
  ASSERT_NE(db.feedback_ledger(), nullptr);

  for (const std::string& sql : LifecycleSqls()) {
    ASSERT_TRUE(db.ExecuteSql(sql).ok());
  }
  uint64_t samples = 0;
  for (const auto& [rb, e] : db.feedback_ledger()->Snapshot()) {
    samples += e.samples;
  }
  EXPECT_GT(samples, 0u);
}

// ---------------------------------------------------------------------------
// ServingDb: concurrent swaps + deterministic replay

TEST(ServingCompaction, SwapsConcurrentWithReadersAndReplaysBitEqual) {
  constexpr size_t kBaseRows = 3200;
  constexpr size_t kBatchRows = 200;
  constexpr int kAppends = 40;

  DbOptions db_options;
  db_options.target_segment_rows = 400;
  auto built = Db::FromGenerator("power", kBaseRows, 7, db_options);
  ASSERT_TRUE(built.ok());

  ServingOptions so;
  so.compaction = TestCompaction();
  so.compaction.interval_ms = 2;  // background compactor on
  ServingDb sdb(std::move(built).value(), so);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      const std::string& sql = LifecycleSqls()[t % LifecycleSqls().size()];
      while (!stop.load(std::memory_order_relaxed)) {
        QueryResult result;
        if (!sdb.Query(sql, &result).ok()) {
          read_errors.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }

  for (int i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(sdb.Append(MakeBatch(kBatchRows, i)).ok()) << i;
    if (i % 8 == 7) {
      // Explicit steps interleave with the background thread.
      ASSERT_TRUE(sdb.CompactNow().ok());
    }
  }
  // Drain whatever is still eligible, then stop the readers.
  for (int step = 0; step < 16; ++step) {
    bool did = false;
    ASSERT_TRUE(sdb.CompactNow(&did).ok());
    if (!did) break;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  const ServingStats stats = sdb.Stats();
  EXPECT_EQ(read_errors.load(), 0u) << "of " << reads.load() << " reads";
  EXPECT_GT(reads.load(), 0u);
  EXPECT_TRUE(stats.compaction_enabled);
  EXPECT_GE(stats.compaction_runs, 1u);
  EXPECT_EQ(stats.compaction_errors, 0u);
  EXPECT_EQ(stats.rows, kBaseRows + kAppends * kBatchRows);

  auto snap = sdb.snapshot();
  EXPECT_LE(snap->db.num_segments(), 16u);
  EXPECT_EQ(snap->compaction_seq, stats.compaction_seq);

  // Per-epoch replay: re-apply each logged event's spec right after its
  // epoch's append on a clean Db; the result must be bit-identical.
  const std::vector<ServingDb::CompactionEvent> log = sdb.CompactionLog();
  ASSERT_EQ(log.size(), stats.compaction_runs);
  DbOptions replay_options = db_options;
  replay_options.compact = so.compaction;
  replay_options.compact.enabled = false;  // only the logged specs apply
  auto replay_built =
      Db::FromGenerator("power", kBaseRows, 7, replay_options);
  ASSERT_TRUE(replay_built.ok());
  Db replay = std::move(replay_built).value();
  size_t next_event = 0;
  for (uint64_t epoch = 0; epoch <= static_cast<uint64_t>(kAppends);
       ++epoch) {
    if (epoch > 0) {
      ASSERT_TRUE(
          replay.Append(MakeBatch(kBatchRows, static_cast<int>(epoch) - 1))
              .ok());
    }
    while (next_event < log.size() && log[next_event].epoch == epoch) {
      auto did = replay.CompactOnce(nullptr, &log[next_event].spec);
      ASSERT_TRUE(did.ok()) << did.status().ToString();
      ASSERT_TRUE(did.value()) << "event " << next_event;
      ++next_event;
    }
  }
  ASSERT_EQ(next_event, log.size());
  ASSERT_EQ(replay.num_segments(), snap->db.num_segments());
  for (const std::string& sql : LifecycleSqls()) {
    QueryResult served;
    ASSERT_TRUE(sdb.Query(sql, &served).ok()) << sql;
    auto expect = replay.ExecuteSql(sql);
    ASSERT_TRUE(expect.ok()) << sql;
    ExpectBitEqual(expect.value(), served, "serving replay: " + sql);
  }
}

// ---------------------------------------------------------------------------
// Quarantine drain through WAL-retained rows

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(f)),
                              std::istreambuf_iterator<char>());
}

uint64_t ReadU64At(const std::vector<uint8_t>& bytes, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}

std::string NewestCheckpoint(const std::string& dir, uint64_t max_epoch) {
  for (uint64_t e = max_epoch + 1; e-- > 0;) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%020llu",
                  static_cast<unsigned long long>(e));
    const std::string path = dir + "/checkpoint-" + buf + ".pws3";
    struct ::stat st;
    if (::stat(path.c_str(), &st) == 0) return path;
  }
  return "";
}

// A corrupt checkpoint block quarantines recovered segments; compaction
// rebuilds them from the WAL-retained rows and the quarantine drains.
TEST(ServingCompaction, QuarantineDrainsThroughRetainedRows) {
  constexpr size_t kBaseRows = 1000;
  constexpr size_t kBatchRows = 500;
  constexpr int kAppends = 80;
  const std::string dir = TestPath("compaction_quarantine");
  RemoveDirIfPresent(dir);

  ServingOptions so;
  so.durability.dir = dir;
  so.compaction = TestCompaction();
  so.compaction.checkpoint_after = false;  // keep the corrupt file mapped

  {
    DbOptions db_options;
    db_options.target_segment_rows = 1000;
    auto base = Db::FromGenerator("power", kBaseRows, 7, db_options);
    ASSERT_TRUE(base.ok());
    auto created = ServingDb::CreateDurable(std::move(base).value(), so);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    for (int i = 0; i < kAppends; ++i) {
      ASSERT_TRUE(created.value()->Append(MakeBatch(kBatchRows, i)).ok());
    }
    // Checkpoint the appended state but keep the WAL: the injected
    // truncate failure models the crash window recovery already handles,
    // and leaves every appended batch recoverable from the WAL.
    ASSERT_TRUE(failpoint::Set("checkpoint.truncate_wal", "error").ok());
    EXPECT_FALSE(created.value()->Checkpoint().ok());
    failpoint::ClearAll();
  }

  // The rot below targets the mapped checkpoint, so recovery must map it
  // whatever PWH_OPEN says about kAuto opens.
  DbOptions mapped;
  mapped.open_mode = OpenMode::kMmap;
  auto recovered = ServingDb::Recover(so, mapped);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ServingDb& sdb = *recovered.value();
  const uint64_t total = kBaseRows + kAppends * kBatchRows;
  ASSERT_EQ(sdb.Stats().rows, total);
  EXPECT_GT(sdb.Stats().retained_bytes, 0u);

  // Rot the last data block of the mapped checkpoint (the recovered
  // serving state has no raw table — retained WAL rows are the only way
  // those segments can ever be rebuilt).
  const std::string checkpoint =
      NewestCheckpoint(dir, static_cast<uint64_t>(kAppends));
  ASSERT_FALSE(checkpoint.empty());
  {
    std::vector<uint8_t> bytes = ReadAll(checkpoint);
    const uint64_t data_end = ReadU64At(bytes, 16);
    ASSERT_GT(data_end - Pws3Codec::kHeaderSize, Pws3Codec::kCrcBlockSize)
        << "fixture too small: one CRC block would quarantine the "
           "unretained base segment too";
    std::fstream f(checkpoint,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(data_end - 1));
    char flip;
    f.read(&flip, 1);
    flip = static_cast<char>(flip ^ 0x01);
    f.seekp(static_cast<std::streamoff>(data_end - 1));
    f.write(&flip, 1);
  }
  auto snap = sdb.snapshot();
  EXPECT_EQ(snap->db.VerifyIntegrity().code(), StatusCode::kDataLoss);
  ASSERT_GT(sdb.Stats().quarantined_segments, 0u);

  // Every quarantined segment must be appended (WAL-covered) rows;
  // corruption confined to the last block guarantees it for this layout.
  for (size_t i = 0; i < snap->db.num_segments(); ++i) {
    if (snap->db.synopses().SegmentQuarantined(i)) {
      ASSERT_GE(snap->db.segment_meta(i).row_begin, kBaseRows)
          << "corruption reached the unretained base segment";
    }
  }
  snap.reset();

  // Drain: each step rebuilds quarantined rows from the retention buffer.
  for (int step = 0; step < 32 && sdb.Stats().quarantined_segments > 0;
       ++step) {
    bool did = false;
    ASSERT_TRUE(sdb.CompactNow(&did).ok());
    ASSERT_TRUE(did) << "quarantine not drainable at step " << step;
  }
  EXPECT_EQ(sdb.Stats().quarantined_segments, 0u);
  EXPECT_GE(sdb.Stats().quarantine_drained, 1u);

  QueryResult result;
  ASSERT_TRUE(sdb.Query("SELECT COUNT(*) FROM power;", &result).ok());
  EXPECT_DOUBLE_EQ(result.groups[0].agg.estimate,
                   static_cast<double>(total));
  RemoveDirIfPresent(dir);
}

// ---------------------------------------------------------------------------
// Crash drills at the compaction failpoints

struct CompactCrashSpec {
  const char* point;
};

constexpr size_t kDrillBaseRows = 3000;
constexpr size_t kDrillBatchRows = 250;
constexpr int kDrillAppends = 2;

/// Child: durable serving with an eligible merge run, crash inside
/// CompactNow at the armed point. Exit codes as in chaos_test.
void RunCompactCrashChild(const std::string& dir, const CompactCrashSpec& spec) {
  ServingOptions so;
  so.durability.dir = dir;
  so.compaction = TestCompaction();
  DbOptions db_options;
  db_options.target_segment_rows = 500;
  auto base = Db::FromGenerator("power", kDrillBaseRows, 7, db_options);
  if (!base.ok()) _Exit(20);
  auto sdb = ServingDb::CreateDurable(std::move(base).value(), so);
  if (!sdb.ok()) _Exit(21);

  const int ack_fd =
      ::open((dir + "/ack.log").c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (ack_fd < 0) _Exit(22);
  for (int i = 0; i < kDrillAppends; ++i) {
    if (!sdb.value()->Append(MakeBatch(kDrillBatchRows, i)).ok()) _Exit(23);
    char line[16];
    const int n = std::snprintf(line, sizeof(line), "%d\n", i);
    if (::write(ack_fd, line, n) != n || ::fsync(ack_fd) != 0) _Exit(24);
  }

  if (!failpoint::Set(spec.point, "crash").ok()) _Exit(25);
  (void)sdb.value()->CompactNow();
  _Exit(0);  // compaction finished = the failpoint never fired
}

/// Parent: a crash anywhere inside CompactNow leaves the durable state
/// PRE-compaction (the WAL carries no compaction records; the compacted
/// checkpoint had not landed). Recovery must agree bit-exactly with a
/// clean no-compaction replay of the acked appends.
void ValidateCompactCrashRecovery(const std::string& dir) {
  std::vector<int> acked;
  {
    std::ifstream ack(dir + "/ack.log");
    int v;
    while (ack >> v) acked.push_back(v);
  }
  ASSERT_EQ(acked.size(), static_cast<size_t>(kDrillAppends));

  ServingOptions so;
  so.durability.dir = dir;  // compaction off: recover the state as-is
  auto recovered = ServingDb::Recover(so);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->Stats().epoch, acked.size());
  ASSERT_EQ(recovered.value()->Stats().rows,
            kDrillBaseRows + acked.size() * kDrillBatchRows);

  DbOptions db_options;
  db_options.target_segment_rows = 500;
  const std::string clean_path = dir + "/clean-replay.pws3";
  {
    auto base = Db::FromGenerator("power", kDrillBaseRows, 7, db_options);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(base->Save(clean_path).ok());
  }
  auto clean = Db::Open(clean_path);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  Db clean_db = std::move(clean).value();
  for (int i = 0; i < kDrillAppends; ++i) {
    auto next = clean_db.WithAppended(MakeBatch(kDrillBatchRows, i));
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    clean_db = std::move(next).value();
  }
  for (const std::string& sql : LifecycleSqls()) {
    QueryResult served;
    ASSERT_TRUE(recovered.value()->Query(sql, &served).ok()) << sql;
    auto expect = clean_db.ExecuteSql(sql);
    ASSERT_TRUE(expect.ok()) << sql;
    ExpectBitEqual(expect.value(), served, sql);
  }
  ::unlink(clean_path.c_str());
}

class CompactCrashDrill : public ::testing::TestWithParam<CompactCrashSpec> {};

TEST_P(CompactCrashDrill, RecoversConsistentPreCompactionState) {
  const CompactCrashSpec spec = GetParam();
  const std::string dir = TestPath(std::string("compact_crash_") + spec.point);
  RemoveDirIfPresent(dir);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    RunCompactCrashChild(dir, spec);  // never returns
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child killed by signal";
  ASSERT_EQ(WEXITSTATUS(wstatus), failpoint::kCrashExitCode)
      << "failpoint " << spec.point << " never fired (exit "
      << WEXITSTATUS(wstatus) << ")";

  ValidateCompactCrashRecovery(dir);
  RemoveDirIfPresent(dir);
}

INSTANTIATE_TEST_SUITE_P(
    EveryCompactionFailpoint, CompactCrashDrill,
    ::testing::Values(
        // Death while building the merged segment: off the write path,
        // nothing published, nothing durable.
        CompactCrashSpec{"compact.build"},
        // Merged segment built, swap not yet published.
        CompactCrashSpec{"compact.publish"},
        // Swap published to readers, compacted checkpoint not yet taken:
        // the durable state is still the pre-compaction segment set.
        CompactCrashSpec{"compact.checkpoint"}),
    [](const ::testing::TestParamInfo<CompactCrashSpec>& info) {
      std::string name = info.param.point;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pairwisehist
