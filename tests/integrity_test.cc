// End-to-end data-integrity tests for the PWS3 checksum layer: round-trip
// bit-equality, legacy v2 opens (checked-in fixture, re-saved as v3) and
// v1 opens (warn counter, no payload checksums), a 200-iteration
// single-bit-flip fuzz drill (every flip detected or provably harmless),
// SIGBUS-safe truncation-under-map, background-scrubber rot detection,
// quarantine fail-closed vs degraded serving over the HTTP surface,
// /healthz lifecycle phases, checkpoint-fallback recovery, and
// kill-at-every-new-failpoint crash drills.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
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
#include "core/integrity.h"
#include "core/pws3.h"
#include "core/synopsis_set.h"
#include "datagen/datasets.h"
#include "serve/service.h"
#include "serve/serving_db.h"
#include "storage/sigbus_guard.h"

namespace pairwisehist {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, 8);
  return b;
}

void ExpectBitEqual(const QueryResult& a, const QueryResult& b,
                    const std::string& ctx) {
  ASSERT_EQ(a.groups.size(), b.groups.size()) << ctx;
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].label, b.groups[g].label) << ctx;
    const AggResult& x = a.groups[g].agg;
    const AggResult& y = b.groups[g].agg;
    ASSERT_EQ(x.empty_selection, y.empty_selection) << ctx;
    if (x.empty_selection) continue;
    EXPECT_EQ(Bits(x.estimate), Bits(y.estimate)) << ctx;
    EXPECT_EQ(Bits(x.lower), Bits(y.lower)) << ctx;
    EXPECT_EQ(Bits(x.upper), Bits(y.upper)) << ctx;
  }
}

const std::vector<std::string>& Workload() {
  static const std::vector<std::string> kSqls = {
      "SELECT COUNT(*) FROM power;",
      "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
      "SELECT SUM(voltage) FROM power WHERE voltage > 240;",
      "SELECT AVG(global_intensity) FROM power GROUP BY day_of_week;",
  };
  return kSqls;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

uint64_t ReadU64At(const std::vector<uint8_t>& bytes, size_t off) {
  uint64_t v;
  std::memcpy(&v, bytes.data() + off, 8);
  return v;
}

DbOptions MmapNoScrub() {
  DbOptions o;
  o.open_mode = OpenMode::kMmap;
  o.scrub = false;
  return o;
}

DbOptions HeapOpen() {
  DbOptions o;
  o.open_mode = OpenMode::kHeap;
  return o;
}

// tests/testdata/legacy_v2.pws3 is a PWS3 v2 file, written before v3
// dropped the row-major cells and row-major cell prefixes by
//
//   DbOptions options;                    // every other option default
//   options.target_segment_rows = 300;   // 600 rows -> 2 segments
//   Db::FromGenerator("temp", 600, 7, options)
//       ->Save(path, SaveFormat::kPws3);
//
// LegacyV2Build() rebuilds that synopsis from the same table and options.
std::string LegacyV2Path() {
  return std::string(PWH_TESTDATA_DIR) + "/legacy_v2.pws3";
}

StatusOr<Db> LegacyV2Build() {
  DbOptions options;
  options.target_segment_rows = 300;
  return Db::FromGenerator("temp", 600, 7, options);
}

const std::vector<std::string>& LegacyV2Workload() {
  static const std::vector<std::string> kSqls = {
      "SELECT COUNT(*) FROM temp;",
      "SELECT AVG(temperature) FROM temp WHERE humidity > 50;",
      "SELECT SUM(battery_pct) FROM temp WHERE temperature >= 15 AND "
      "humidity < 70;",
      "SELECT MEDIAN(humidity) FROM temp WHERE battery_pct > 90 OR "
      "temperature < 12;",
      "SELECT VAR(temperature) FROM temp WHERE humidity <= 60;",
      "SELECT MAX(humidity) FROM temp WHERE temperature > 14;",
      "SELECT AVG(humidity) FROM temp GROUP BY device;",
  };
  return kSqls;
}

void ExpectLegacyV2Answers(const Db& want, const Db& got,
                           const std::string& ctx) {
  for (const std::string& sql : LegacyV2Workload()) {
    auto a = want.ExecuteSql(sql);
    auto b = got.ExecuteSql(sql);
    ASSERT_TRUE(a.ok() && b.ok()) << ctx << ": " << sql;
    ExpectBitEqual(a.value(), b.value(), ctx + ": " + sql);
  }
}

/// Shared fixture: one PWS3 file (4 segments) plus the baseline
/// answers a clean open produces — the bit-equality reference for every
/// corruption drill below.
class IntegrityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbOptions options;
    options.synopsis.sample_size = 3000;
    options.target_segment_rows = 6000;  // 24000 rows -> 4 segments
    auto db = Db::FromGenerator("power", 24000, 7, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    path_ = new std::string(::testing::TempDir() + "/integrity.pws3");
    ASSERT_TRUE(db->Save(*path_, SaveFormat::kPws3).ok());
    image_ = new std::vector<uint8_t>(ReadAll(*path_));
    baseline_ = new std::vector<QueryResult>();
    for (const std::string& sql : Workload()) {
      auto r = db->ExecuteSql(sql);
      ASSERT_TRUE(r.ok()) << sql;
      baseline_->push_back(std::move(r).value());
    }
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete image_;
    delete baseline_;
  }

  static void ExpectBaselineAnswers(Db* db, const std::string& ctx) {
    for (size_t i = 0; i < Workload().size(); ++i) {
      auto r = db->ExecuteSql(Workload()[i]);
      ASSERT_TRUE(r.ok()) << ctx << ": " << Workload()[i];
      ExpectBitEqual((*baseline_)[i], r.value(), ctx + ": " + Workload()[i]);
    }
  }

  static std::string* path_;
  static std::vector<uint8_t>* image_;       ///< pristine file bytes
  static std::vector<QueryResult>* baseline_;
};

std::string* IntegrityTest::path_ = nullptr;
std::vector<uint8_t>* IntegrityTest::image_ = nullptr;
std::vector<QueryResult>* IntegrityTest::baseline_ = nullptr;

TEST_F(IntegrityTest, RoundTripVerifiesAndAnswersBitEqual) {
  auto heap = Db::Open(*path_, HeapOpen());
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  EXPECT_TRUE(heap->VerifyIntegrity().ok());
  EXPECT_FALSE(heap->has_quarantine());
  ExpectBaselineAnswers(&heap.value(), "heap");

  auto mmap = Db::Open(*path_, MmapNoScrub());
  ASSERT_TRUE(mmap.ok()) << mmap.status().ToString();
  ASSERT_TRUE(mmap->mapped());
  // The mapped open carries live integrity state; a full sweep passes.
  ASSERT_NE(mmap->synopses().integrity(), nullptr);
  EXPECT_TRUE(mmap->VerifyIntegrity().ok());
  EXPECT_GT(mmap->synopses().integrity()->blocks_verified(), 0u);
  ExpectBaselineAnswers(&mmap.value(), "mmap");
}

// The checked-in v2 file opens on both paths with answers bit-equal to a
// fresh build of the same table; it carries live integrity state on the
// mapped path, does not count as a legacy (v1) open, and re-saves as v3
// without its obsolete per-pair arrays and without changing an answer.
TEST_F(IntegrityTest, LegacyV2FixtureOpensBitEqualAndResavesAsV3) {
  const std::vector<uint8_t> v2 = ReadAll(LegacyV2Path());
  ASSERT_GE(v2.size(), Pws3Codec::kHeaderSize);
  uint32_t version = 0;
  std::memcpy(&version, v2.data() + 4, 4);
  ASSERT_EQ(version, 2u);
  auto fresh = LegacyV2Build();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_EQ(fresh->synopses().NumSegments(), 2u);

  const uint64_t before = Pws3LegacyOpenCount();
  const std::string v3_path = ::testing::TempDir() + "/legacy_v2_as_v3.pws3";
  for (const DbOptions& opts : {HeapOpen(), MmapNoScrub()}) {
    const std::string mode =
        opts.open_mode == OpenMode::kHeap ? "heap" : "mmap";
    auto db = Db::Open(LegacyV2Path(), opts);
    ASSERT_TRUE(db.ok()) << mode << ": " << db.status().ToString();
    EXPECT_EQ(db->mapped(), opts.open_mode == OpenMode::kMmap);
    EXPECT_EQ(db->synopses().NumSegments(), 2u);
    EXPECT_TRUE(db->VerifyIntegrity().ok()) << mode;
    ExpectLegacyV2Answers(*fresh, *db, "v2 " + mode);

    ASSERT_TRUE(db->Save(v3_path, SaveFormat::kPws3).ok()) << mode;
    const std::vector<uint8_t> v3 = ReadAll(v3_path);
    std::memcpy(&version, v3.data() + 4, 4);
    EXPECT_EQ(version, Pws3Codec::kVersion);
    EXPECT_LT(v3.size(), v2.size());
    for (const DbOptions& reopen : {HeapOpen(), MmapNoScrub()}) {
      auto back = Db::Open(v3_path, reopen);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_TRUE(back->VerifyIntegrity().ok());
      ExpectLegacyV2Answers(*fresh, *back, "v3 from " + mode);
    }
  }
  EXPECT_EQ(Pws3LegacyOpenCount(), before);
  std::remove(v3_path.c_str());
}

// A v1 file (synthesized from the v2 fixture by dropping its CRC region;
// v1 and v2 share the per-pair arrays, v3 does not) still opens on both
// paths — upgrade compatibility — but each open bumps the legacy counter
// /healthz surfaces, and it carries no integrity state: payload
// corruption there is only caught by the meta stream.
TEST_F(IntegrityTest, LegacyV1OpensAndBumpsWarnCounter) {
  const std::vector<uint8_t> v2 = ReadAll(LegacyV2Path());
  ASSERT_GE(v2.size(), Pws3Codec::kHeaderSize);
  const uint64_t data_end = ReadU64At(v2, 16);
  const uint64_t meta_size = ReadU64At(v2, 24);
  const uint64_t meta_off = v2.size() - meta_size;  // after the CRC table
  ASSERT_GT(meta_off, data_end);                    // v2 really has one

  std::vector<uint8_t> v1(v2.begin(), v2.begin() + data_end);
  v1.insert(v1.end(), v2.begin() + meta_off, v2.end());
  const uint32_t version = 1;
  std::memcpy(v1.data() + 4, &version, 4);
  const uint64_t file_size = v1.size();
  std::memcpy(v1.data() + 8, &file_size, 8);
  std::fill(v1.begin() + 40, v1.begin() + 64, uint8_t{0});

  auto fresh = LegacyV2Build();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  const std::string path = ::testing::TempDir() + "/integrity_v1.pws3";
  WriteAll(path, v1);
  const uint64_t before = Pws3LegacyOpenCount();
  for (const DbOptions& opts : {HeapOpen(), MmapNoScrub()}) {
    auto db = Db::Open(path, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->synopses().integrity(), nullptr);
    EXPECT_TRUE(db->VerifyIntegrity().ok());  // trivially: no state
    ExpectLegacyV2Answers(*fresh, *db, "v1");
  }
  EXPECT_EQ(Pws3LegacyOpenCount(), before + 2);
  std::remove(path.c_str());
}

// The acceptance drill: 200 single-bit flips at LCG-chosen offsets across
// the whole file (header, data, CRC table, meta). Every flip must either
// be detected (open or verify fails) or be provably harmless (all answers
// bit-equal to the pristine baseline) — never a silent wrong answer.
TEST_F(IntegrityTest, SingleBitFlipFuzzNeverAnswersWrong) {
  const std::string path = ::testing::TempDir() + "/integrity_fuzz.pws3";
  uint64_t lcg = 0x9E3779B97F4A7C15ull;
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 16;
  };
  int detected = 0;
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> bytes = *image_;
    const size_t off = next() % bytes.size();
    bytes[off] ^= static_cast<uint8_t>(1u << (next() % 8));
    WriteAll(path, bytes);
    const std::string ctx =
        "iter " + std::to_string(iter) + " offset " + std::to_string(off);

    // Heap path: Decode verifies eagerly, so a bad open never exists.
    {
      auto db = Db::Open(path, HeapOpen());
      if (!db.ok()) {
        ++detected;
      } else {
        ExpectBaselineAnswers(&db.value(), ctx + " heap");
      }
    }
    // Mmap path: open is O(metadata), so run the synchronous sweep the
    // scrubber would do before trusting any answer.
    {
      auto db = Db::Open(path, MmapNoScrub());
      if (!db.ok() || !db->VerifyIntegrity().ok()) {
        ++detected;
      } else {
        ExpectBaselineAnswers(&db.value(), ctx + " mmap");
      }
    }
  }
  // The file is almost entirely checksummed bytes; if nothing was ever
  // detected the verification layer is not actually wired in.
  EXPECT_GT(detected, 300) << "of 400 open attempts";
  std::remove(path.c_str());
}

// Truncating the file under an established mapping must surface as a
// clean DataLoss from the SIGBUS guard — never a process kill — and the
// failing blocks quarantine their segments.
TEST_F(IntegrityTest, TruncationUnderMapIsCleanDataLoss) {
  const std::string path = ::testing::TempDir() + "/integrity_trunc.pws3";
  WriteAll(path, *image_);
  auto db = Db::Open(path, MmapNoScrub());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db->mapped());
  EXPECT_TRUE(db->VerifyIntegrity().ok());

  ASSERT_EQ(::truncate(path.c_str(), 0), 0);
  const uint64_t absorbed_before = SigbusFaultsAbsorbed();
  Status st = db->VerifyIntegrity();
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_GT(SigbusFaultsAbsorbed(), absorbed_before);
  EXPECT_TRUE(db->has_quarantine());
  std::remove(path.c_str());
}

// The background scrubber detects at-rest rot: corrupt the file through
// the filesystem (the shared mapping sees the write) and poll until a
// continuous-scrub pass quarantines the segment.
TEST_F(IntegrityTest, BackgroundScrubberDetectsRot) {
  const std::string path = ::testing::TempDir() + "/integrity_scrub.pws3";
  WriteAll(path, *image_);
  DbOptions opts = MmapNoScrub();
  opts.scrub = true;
  opts.scrub_mb_per_s = 0;    // unthrottled
  opts.scrub_repeat_ms = 2;   // continuous
  auto db = Db::Open(path, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const auto& integrity = db->synopses().integrity();
  ASSERT_NE(integrity, nullptr);

  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(Pws3Codec::kHeaderSize));
    char flip;
    f.seekg(static_cast<std::streamoff>(Pws3Codec::kHeaderSize));
    f.read(&flip, 1);
    flip = static_cast<char>(flip ^ 0x01);
    f.seekp(static_cast<std::streamoff>(Pws3Codec::kHeaderSize));
    f.write(&flip, 1);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!db->has_quarantine() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(db->has_quarantine());
  EXPECT_GE(db->scrub_errors(), 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Quarantine serving semantics over the HTTP surface

/// A ServingDb whose last segment is quarantined (corruption planted in
/// the final data block), plus the clean answers for comparison.
class DegradedServing : public IntegrityTest {
 protected:
  void SetUp() override {
    path2_ = ::testing::TempDir() + "/integrity_degraded.pws3";
    std::vector<uint8_t> bytes = *image_;
    const uint64_t data_end = ReadU64At(bytes, 16);
    ASSERT_GT(data_end - Pws3Codec::kHeaderSize, Pws3Codec::kCrcBlockSize)
        << "fixture too small to leave surviving segments";
    bytes[data_end - 1] ^= 0x01;  // last block -> tail segment(s) only
    WriteAll(path2_, bytes);
  }
  void TearDown() override { std::remove(path2_.c_str()); }

  Db OpenQuarantined(bool allow_degraded) {
    DbOptions opts = MmapNoScrub();
    opts.allow_degraded = allow_degraded;
    auto db = Db::Open(path2_, opts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->VerifyIntegrity().code(), StatusCode::kDataLoss);
    EXPECT_TRUE(db->has_quarantine());
    EXPECT_LT(db->quarantined_segment_count(), db->num_segments())
        << "corruption in the last block quarantined every segment";
    return std::move(db).value();
  }

  static HttpRequest Post(const std::string& path, const std::string& body,
                          bool allow_degraded) {
    HttpRequest req;
    req.method = "POST";
    req.path = path;
    req.body = body;
    if (allow_degraded) req.headers.emplace_back("X-Allow-Degraded", "1");
    return req;
  }

  std::string path2_;
};

TEST_F(DegradedServing, FailsClosedThenDegradesWithHeader) {
  ServingDb sdb(OpenQuarantined(/*allow_degraded=*/false));
  const std::string body = "{\"sql\":\"SELECT COUNT(*) FROM power;\"}";

  // Default: fail closed. The 503 names the escape hatch.
  QueryResult unused;
  Status st = sdb.Query("SELECT COUNT(*) FROM power;", &unused);
  ASSERT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find("quarantined"), std::string::npos);
  EXPECT_NE(st.message().find("X-Allow-Degraded"), std::string::npos);

  auto handler = MakeServingHandler(&sdb);
  HttpResponse closed = handler(Post("/query", body, false));
  EXPECT_EQ(closed.status, 503);
  EXPECT_NE(closed.body.find("quarantined"), std::string::npos);

  // Opt-in: answers from the surviving segments, flagged as degraded.
  HttpResponse degraded = handler(Post("/query", body, true));
  EXPECT_EQ(degraded.status, 200) << degraded.body;
  EXPECT_NE(degraded.body.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(degraded.body.find("\"rows_skipped\":"), std::string::npos);

  // The degraded COUNT covers exactly the surviving rows.
  DegradedInfo info;
  QueryResult result;
  ASSERT_TRUE(sdb.Query("SELECT COUNT(*) FROM power;",
                        ReadOptions{/*allow_degraded=*/true}, &result, &info)
                  .ok());
  EXPECT_TRUE(info.degraded);
  EXPECT_GT(info.rows_skipped, 0u);
  EXPECT_DOUBLE_EQ(result.Scalar().estimate,
                   static_cast<double>(24000 - info.rows_skipped));

  // Batch: same fail-closed / opt-in split.
  const std::string batch =
      "{\"sqls\":[\"SELECT COUNT(*) FROM power;\","
      "\"SELECT AVG(voltage) FROM power;\"]}";
  EXPECT_EQ(handler(Post("/batch", batch, false)).status, 503);
  HttpResponse bd = handler(Post("/batch", batch, true));
  EXPECT_EQ(bd.status, 200) << bd.body;
  EXPECT_NE(bd.body.find("\"degraded\":true"), std::string::npos);

  EXPECT_GE(sdb.Stats().degraded_reads, 2u);
  EXPECT_GT(sdb.Stats().quarantined_segments, 0u);
}

// DbOptions::allow_degraded makes degradation the db-wide policy: plain
// reads (which carry no per-read options) degrade instead of failing.
TEST_F(DegradedServing, DbLevelOptInDegradesPlainReads) {
  ServingDb sdb(OpenQuarantined(/*allow_degraded=*/true));
  QueryResult result;
  ASSERT_TRUE(sdb.Query("SELECT COUNT(*) FROM power;", &result).ok());
  EXPECT_LT(result.Scalar().estimate, 24000.0);
  EXPECT_GE(sdb.Stats().degraded_reads, 1u);
}

// In a pipelined burst, a request opting into degraded reads takes the
// single-request path (the burst batch runs under default read options)
// while its neighbors fail closed.
TEST_F(DegradedServing, PipelinedBurstHonorsPerRequestOptIn) {
  ServingDb sdb(OpenQuarantined(/*allow_degraded=*/false));
  auto batch_handler = MakeServingBatchHandler(&sdb);
  const std::string body = "{\"sql\":\"SELECT COUNT(*) FROM power;\"}";
  std::vector<HttpRequest> burst = {Post("/query", body, false),
                                    Post("/query", body, true),
                                    Post("/query", body, false)};
  std::vector<HttpResponse> out = batch_handler(burst);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].status, 503);
  EXPECT_EQ(out[1].status, 200) << out[1].body;
  EXPECT_NE(out[1].body.find("\"degraded\":true"), std::string::npos);
  EXPECT_EQ(out[2].status, 503);
}

// With the db-level opt-in, a pipelined burst answers exactly what a
// single /query answers, degraded markers included: a partial count must
// say it is partial on every read shape.
TEST_F(DegradedServing, PipelinedBurstKeepsDegradedMarkers) {
  ServingDb sdb(OpenQuarantined(/*allow_degraded=*/true));
  auto handler = MakeServingHandler(&sdb);
  auto batch_handler = MakeServingBatchHandler(&sdb);
  const std::string body = "{\"sql\":\"SELECT COUNT(*) FROM power;\"}";
  const HttpResponse single = handler(Post("/query", body, false));
  ASSERT_EQ(single.status, 200) << single.body;
  EXPECT_NE(single.body.find("\"degraded\":true"), std::string::npos);

  std::vector<HttpResponse> out = batch_handler(
      {Post("/query", body, false), Post("/query", body, false)});
  ASSERT_EQ(out.size(), 2u);
  for (const HttpResponse& resp : out) {
    EXPECT_EQ(resp.status, 200) << resp.body;
    EXPECT_EQ(resp.body, single.body);
  }
}

// A degraded QueryBatch is one batch execution on the degraded view. It
// answers bit-equal to the same statements sent one at a time through
// degraded Query, from the same epoch, and a statement that fails to
// prepare gets its own error while its neighbours answer.
TEST_F(DegradedServing, BatchMatchesSingleDegradedReads) {
  ServingDb sdb(OpenQuarantined(/*allow_degraded=*/false));
  const ReadOptions allow{/*allow_degraded=*/true};
  std::vector<std::string> sqls = Workload();
  const size_t bad = 2;
  sqls.insert(sqls.begin() + bad, "SELECT AVG(no_such_column) FROM power;");
  // Aggregates sharing one WHERE clause, and a repeated statement.
  sqls.push_back("SELECT MEDIAN(voltage) FROM power WHERE hour >= 18;");
  sqls.push_back("SELECT VAR(global_active_power) FROM power WHERE hour >= 18;");
  sqls.push_back("SELECT COUNT(*) FROM power WHERE voltage > 240;");
  sqls.push_back(sqls[1]);

  std::vector<QueryResult> results;
  std::vector<Status> statuses;
  DegradedInfo batch_info;
  uint64_t batch_epoch = ~uint64_t{0};
  ASSERT_TRUE(sdb.QueryBatch(sqls, allow, &results, &statuses, &batch_info,
                             &batch_epoch)
                  .ok());
  ASSERT_EQ(results.size(), sqls.size());
  ASSERT_EQ(statuses.size(), sqls.size());
  EXPECT_TRUE(batch_info.degraded);
  EXPECT_GT(batch_info.rows_skipped, 0u);
  EXPECT_EQ(batch_epoch, sdb.snapshot()->epoch);

  for (size_t i = 0; i < sqls.size(); ++i) {
    QueryResult single;
    DegradedInfo info;
    uint64_t epoch = ~uint64_t{0};
    const Status st = sdb.Query(sqls[i], allow, &single, &info, &epoch);
    EXPECT_EQ(epoch, batch_epoch) << sqls[i];
    EXPECT_TRUE(info.degraded) << sqls[i];
    EXPECT_EQ(info.rows_skipped, batch_info.rows_skipped) << sqls[i];
    EXPECT_EQ(info.segments_skipped, batch_info.segments_skipped) << sqls[i];
    if (i == bad) {
      EXPECT_FALSE(st.ok());
      EXPECT_EQ(statuses[i].code(), st.code());
      EXPECT_EQ(statuses[i].message(), st.message());
      continue;
    }
    ASSERT_TRUE(st.ok()) << sqls[i] << ": " << st.ToString();
    ASSERT_TRUE(statuses[i].ok()) << sqls[i] << ": " << statuses[i].ToString();
    ExpectBitEqual(single, results[i], sqls[i]);
  }
}

// ServingStats::errors and degraded_reads count statements, alike on
// Query and QueryBatch.
TEST_F(DegradedServing, ErrorAndDegradedCountersCountStatements) {
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM power;",
      "SELECT AVG(no_such_column) FROM power;",
      "SELECT SUM(voltage) FROM power WHERE voltage > 240;",
  };
  std::vector<QueryResult> results;
  std::vector<Status> statuses;
  QueryResult r;

  // A clean snapshot: only the statement that fails to prepare counts.
  {
    auto db = Db::Open(*path_, MmapNoScrub());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ServingDb clean(std::move(db).value());
    ASSERT_TRUE(clean.QueryBatch(sqls, &results, &statuses).ok());
    EXPECT_EQ(clean.Stats().errors, 1u);
    EXPECT_FALSE(clean.Query(sqls[1], &r).ok());
    EXPECT_EQ(clean.Stats().errors, 2u);
    EXPECT_EQ(clean.Stats().degraded_reads, 0u);
  }

  ServingDb sdb(OpenQuarantined(/*allow_degraded=*/false));
  // Refused by the quarantine gate: every statement is an error.
  EXPECT_EQ(sdb.QueryBatch(sqls, &results, &statuses).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(sdb.Stats().errors, 3u);
  EXPECT_EQ(sdb.Query(sqls[0], &r).code(), StatusCode::kDataLoss);
  EXPECT_EQ(sdb.Stats().errors, 4u);
  EXPECT_EQ(sdb.Stats().degraded_reads, 0u);

  // Degraded: every statement is a degraded read; the bad one is also an
  // error.
  const ReadOptions allow{/*allow_degraded=*/true};
  DegradedInfo info;
  ASSERT_TRUE(sdb.QueryBatch(sqls, allow, &results, &statuses, &info).ok());
  EXPECT_EQ(sdb.Stats().degraded_reads, 3u);
  EXPECT_EQ(sdb.Stats().errors, 5u);
  EXPECT_FALSE(sdb.Query(sqls[1], allow, &r, &info).ok());
  EXPECT_EQ(sdb.Stats().degraded_reads, 4u);
  EXPECT_EQ(sdb.Stats().errors, 6u);
  ASSERT_TRUE(sdb.Query(sqls[0], allow, &r, &info).ok());
  EXPECT_EQ(sdb.Stats().degraded_reads, 5u);
  EXPECT_EQ(sdb.Stats().errors, 6u);

  // The call counters are unchanged by this: calls and statements.
  const ServingStats stats = sdb.Stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batch_statements, 6u);
}

// ---------------------------------------------------------------------------
// /healthz

TEST_F(IntegrityTest, HealthzReportsLifecycleAndIntegrity) {
  auto db = Db::Open(*path_, MmapNoScrub());
  ASSERT_TRUE(db.ok());
  ServingDb sdb(std::move(db).value());
  ServiceState state;
  ServiceGate gate({.max_inflight = 1});
  auto handler = MakeServingHandler(&sdb, &gate, &state);

  HttpRequest req;
  req.method = "GET";
  req.path = "/healthz";
  HttpResponse starting = handler(req);
  EXPECT_EQ(starting.status, 503);
  EXPECT_NE(starting.body.find("\"status\":\"starting\""), std::string::npos);

  state.Set(ServiceState::Phase::kOk);
  HttpResponse ok = handler(req);
  EXPECT_EQ(ok.status, 200);
  EXPECT_NE(ok.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(ok.body.find("\"quarantined_segments\":0"), std::string::npos);
  EXPECT_NE(ok.body.find("\"scrub_errors\":"), std::string::npos);
  EXPECT_NE(ok.body.find("\"legacy_pws3v1_opens\":"), std::string::npos);

  state.Set(ServiceState::Phase::kDraining);
  HttpResponse draining = handler(req);
  EXPECT_EQ(draining.status, 503);
  EXPECT_NE(draining.body.find("\"status\":\"draining\""),
            std::string::npos);

  // Probes are gate-exempt: the shed counters stay untouched.
  EXPECT_EQ(gate.stats().shed_reads, 0u);
  EXPECT_EQ(gate.stats().admitted, 0u);

  // Without a ServiceState the endpoint reports ok (embedders that don't
  // manage lifecycle still get the integrity counters).
  auto stateless = MakeServingHandler(&sdb);
  EXPECT_EQ(stateless(req).status, 200);
}

// ---------------------------------------------------------------------------
// Checkpoint-fallback recovery

std::string CheckpointPath(const std::string& dir, uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(epoch));
  return dir + "/checkpoint-" + buf + ".pws3";
}

void RemoveDirIfPresent(const std::string& dir) {
  for (const char* f : {"wal.log"}) ::unlink((dir + "/" + f).c_str());
  for (uint64_t e = 0; e < 16; ++e) {
    for (const char* suffix : {".pws2", ".pws3"}) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%020llu",
                    static_cast<unsigned long long>(e));
      ::unlink((dir + "/checkpoint-" + buf + suffix).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

Db MakeBaseDb() {
  DbOptions options;
  options.target_segment_rows = 1500;
  auto db = Db::FromGenerator("power", 3000, 7, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

Table MakeBatch(int i) {
  auto batch = MakeDataset("power", 250, 1000 + i);
  EXPECT_TRUE(batch.ok());
  return std::move(batch).value();
}

/// Leaves `dir` with two checkpoints — epoch 1 (healthy) and epoch 2
/// (newest) — and a WAL still holding the epoch-2 record, by failing the
/// post-checkpoint WAL truncation. Exactly the crash window the fallback
/// exists for.
void BuildTwoCheckpointDir(const std::string& dir) {
  ServingOptions opts;
  opts.durability.dir = dir;
  auto sdb = ServingDb::CreateDurable(MakeBaseDb(), opts);
  ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
  ASSERT_TRUE(sdb.value()->Append(MakeBatch(0)).ok());
  ASSERT_TRUE(sdb.value()->Checkpoint().ok());  // epoch 1, WAL truncated
  ASSERT_TRUE(sdb.value()->Append(MakeBatch(1)).ok());
  ASSERT_TRUE(failpoint::Set("checkpoint.truncate_wal", "error").ok());
  Status cp = sdb.value()->Checkpoint();  // epoch 2 lands, WAL survives
  failpoint::ClearAll();
  EXPECT_FALSE(cp.ok());
  sdb.value().reset();
  struct ::stat st;
  ASSERT_EQ(::stat(CheckpointPath(dir, 1).c_str(), &st), 0);
  ASSERT_EQ(::stat(CheckpointPath(dir, 2).c_str(), &st), 0);
}

void CorruptDataByte(const std::string& path) {
  std::vector<uint8_t> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), Pws3Codec::kHeaderSize + 64);
  const uint64_t data_end = ReadU64At(bytes, 16);
  bytes[Pws3Codec::kHeaderSize + (data_end - Pws3Codec::kHeaderSize) / 2] ^=
      0x01;
  WriteAll(path, bytes);
}

TEST(RecoverFallback, SkipsCorruptNewestCheckpointWhenWalCovers) {
  const std::string dir = ::testing::TempDir() + "/integrity_recover";
  RemoveDirIfPresent(dir);
  BuildTwoCheckpointDir(dir);
  CorruptDataByte(CheckpointPath(dir, 2));

  ServingOptions opts;
  opts.durability.dir = dir;
  auto recovered = ServingDb::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryInfo& info = recovered.value()->recovery_info();
  EXPECT_EQ(info.checkpoints_skipped, 1u);
  EXPECT_EQ(info.corrupt_checkpoint, CheckpointPath(dir, 2));
  EXPECT_EQ(recovered.value()->Stats().epoch, 2u);
  EXPECT_EQ(recovered.value()->Stats().rows, 3000u + 2 * 250u);

  // Answers match a clean in-memory replay of the same appends.
  Db clean = MakeBaseDb();
  for (int i = 0; i < 2; ++i) {
    auto next = clean.WithAppended(MakeBatch(i));
    ASSERT_TRUE(next.ok());
    clean = std::move(next).value();
  }
  for (const std::string& sql : Workload()) {
    QueryResult served;
    ASSERT_TRUE(recovered.value()->Query(sql, &served).ok()) << sql;
    auto expect = clean.ExecuteSql(sql);
    ASSERT_TRUE(expect.ok()) << sql;
    ExpectBitEqual(expect.value(), served, sql);
  }
  recovered.value().reset();
  RemoveDirIfPresent(dir);
}

// The regression the satellite demands: when the WAL does NOT cover the
// gap back to the corrupt newest checkpoint, recovery refuses to serve
// silently-stale data, and the error names the corrupt file.
TEST(RecoverFallback, RefusesWhenWalDoesNotCoverTheGap) {
  const std::string dir = ::testing::TempDir() + "/integrity_recover_gap";
  RemoveDirIfPresent(dir);
  BuildTwoCheckpointDir(dir);
  CorruptDataByte(CheckpointPath(dir, 2));
  ASSERT_EQ(::truncate((dir + "/wal.log").c_str(), 0), 0);

  ServingOptions opts;
  opts.durability.dir = dir;
  auto recovered = ServingDb::Recover(opts);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(recovered.status().ToString().find(CheckpointPath(dir, 2)),
            std::string::npos)
      << recovered.status().ToString();
  RemoveDirIfPresent(dir);
}

// Every checkpoint corrupt: recovery fails and names the newest one.
TEST(RecoverFallback, AllCheckpointsCorruptNamesNewest) {
  const std::string dir = ::testing::TempDir() + "/integrity_recover_all";
  RemoveDirIfPresent(dir);
  BuildTwoCheckpointDir(dir);
  CorruptDataByte(CheckpointPath(dir, 1));
  CorruptDataByte(CheckpointPath(dir, 2));

  ServingOptions opts;
  opts.durability.dir = dir;
  auto recovered = ServingDb::Recover(opts);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(recovered.status().ToString().find(CheckpointPath(dir, 2)),
            std::string::npos)
      << recovered.status().ToString();
  RemoveDirIfPresent(dir);
}

// The recover.checkpoint_open failpoint skips the newest candidate the
// same way real corruption does — the injection path CI chaos runs use.
TEST(RecoverFallback, CheckpointOpenFailpointFallsBack) {
  const std::string dir = ::testing::TempDir() + "/integrity_recover_fp";
  RemoveDirIfPresent(dir);
  BuildTwoCheckpointDir(dir);

  ASSERT_TRUE(failpoint::Set("recover.checkpoint_open", "error@1").ok());
  ServingOptions opts;
  opts.durability.dir = dir;
  auto recovered = ServingDb::Recover(opts);
  failpoint::ClearAll();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->recovery_info().checkpoints_skipped, 1u);
  EXPECT_EQ(recovered.value()->Stats().epoch, 2u);
  recovered.value().reset();
  RemoveDirIfPresent(dir);
}

// Recovered state surfaces the fallback in /stats.
TEST(RecoverFallback, StatsSurfaceSkippedCheckpoints) {
  const std::string dir = ::testing::TempDir() + "/integrity_recover_stats";
  RemoveDirIfPresent(dir);
  BuildTwoCheckpointDir(dir);
  CorruptDataByte(CheckpointPath(dir, 2));

  ServingOptions opts;
  opts.durability.dir = dir;
  auto recovered = ServingDb::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto handler = MakeServingHandler(recovered.value().get());
  HttpRequest req;
  req.method = "GET";
  req.path = "/stats";
  const std::string body = handler(req).body;
  EXPECT_NE(body.find("\"checkpoints_skipped\":1"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"corrupt_checkpoint\":"), std::string::npos) << body;
  recovered.value().reset();
  RemoveDirIfPresent(dir);
}

// ---------------------------------------------------------------------------
// Kill drills at every new failpoint: the process dies exactly at the
// injected point; nothing half-written survives to corrupt later runs.

TEST_F(IntegrityTest, KillDuringScrubVerify) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!failpoint::Set("scrub.verify", "crash@1").ok()) ::_Exit(20);
    auto db = Db::Open(*path_, MmapNoScrub());
    if (!db.ok()) ::_Exit(21);
    (void)db->VerifyIntegrity();  // crashes on the first block
    ::_Exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child killed by signal";
  EXPECT_EQ(WEXITSTATUS(wstatus), failpoint::kCrashExitCode);
}

TEST(RecoverFallback, KillDuringCheckpointOpen) {
  const std::string dir = ::testing::TempDir() + "/integrity_kill_recover";
  RemoveDirIfPresent(dir);
  BuildTwoCheckpointDir(dir);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!failpoint::Set("recover.checkpoint_open", "crash@1").ok()) {
      ::_Exit(20);
    }
    ServingOptions opts;
    opts.durability.dir = dir;
    (void)ServingDb::Recover(opts);
    ::_Exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child killed by signal";
  EXPECT_EQ(WEXITSTATUS(wstatus), failpoint::kCrashExitCode);

  // The crash touched nothing: recovery still works afterwards.
  ServingOptions opts;
  opts.durability.dir = dir;
  auto recovered = ServingDb::Recover(opts);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  recovered.value().reset();
  RemoveDirIfPresent(dir);
}

TEST_F(IntegrityTest, KillDuringSaveLeavesOriginalIntact) {
  const std::string out = ::testing::TempDir() + "/integrity_kill_save.pws3";
  std::remove(out.c_str());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!failpoint::Set("pws3.block_corrupt", "crash@1").ok()) ::_Exit(20);
    auto db = Db::Open(*path_, HeapOpen());
    if (!db.ok()) ::_Exit(21);
    (void)db->Save(out, SaveFormat::kPws3);  // crashes before file I/O
    ::_Exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child killed by signal";
  EXPECT_EQ(WEXITSTATUS(wstatus), failpoint::kCrashExitCode);

  // Crash fired inside Encode, before any write: no output file exists
  // and the source file still opens and verifies.
  struct ::stat st;
  EXPECT_NE(::stat(out.c_str(), &st), 0);
  auto db = Db::Open(*path_, MmapNoScrub());
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

// The corruption generator itself: pws3.block_corrupt=error flips a data
// byte after the CRCs are computed, so the written file must fail
// verification — the hook CI chaos legs use to prove detection end to
// end.
TEST_F(IntegrityTest, BlockCorruptFailpointProducesDetectableFile) {
  const std::string out = ::testing::TempDir() + "/integrity_rotgen.pws3";
  auto db = Db::Open(*path_, HeapOpen());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(failpoint::Set("pws3.block_corrupt", "error").ok());
  Status saved = db->Save(out, SaveFormat::kPws3);
  failpoint::ClearAll();
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  auto heap = Db::Open(out, HeapOpen());
  EXPECT_FALSE(heap.ok());  // eager verify catches it
  auto mapped = Db::Open(out, MmapNoScrub());
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped->VerifyIntegrity().code(), StatusCode::kDataLoss);
  std::remove(out.c_str());
}

TEST(FailpointRegistry, NewIntegrityPointsAreKnown) {
  const auto& points = failpoint::KnownPoints();
  for (const char* p :
       {"scrub.verify", "pws3.block_corrupt", "recover.checkpoint_open"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), p), points.end()) << p;
  }
}

}  // namespace
}  // namespace pairwisehist
