// WAL + durable-ServingDb validation: frame codec round-trips, the
// crash-shaped corruption contract (torn tail truncated, mid-file
// corruption = DataLoss), double-recovery idempotence, checkpoint/WAL
// epoch skew, and end-to-end crash-free recovery bit-equality.
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "common/failpoint.h"
#include "datagen/datasets.h"
#include "serve/serving_db.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace pairwisehist {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveDirIfPresent(const std::string& dir) {
  // The serving dirs only ever hold flat files (wal.log, checkpoints).
  for (const char* f : {"wal.log"}) ::unlink((dir + "/" + f).c_str());
  for (uint64_t e = 0; e < 64; ++e) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%020llu",
                  static_cast<unsigned long long>(e));
    for (const char* suffix : {".pws2", ".pws2.tmp", ".pws3", ".pws3.tmp"}) {
      ::unlink((dir + "/checkpoint-" + buf + suffix).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

Table MakeMixedBatch(int salt) {
  Table t("power");
  Column a("a", DataType::kInt64, 0);
  Column b("b", DataType::kFloat64, 3);
  Column c("c", DataType::kCategorical, 0);
  for (int i = 0; i < 20; ++i) {
    a.Append(i * 3 + salt);
    if ((i + salt) % 5 == 0) {
      b.AppendNull();
    } else {
      b.Append(i * 0.125 + salt * 1e-3);
    }
    c.AppendCategory((i + salt) % 2 ? "odd" : "even");
  }
  t.AddColumn(std::move(a));
  t.AddColumn(std::move(b));
  t.AddColumn(std::move(c));
  return t;
}

void ExpectTablesBitEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.NumColumns(), b.NumColumns());
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    EXPECT_EQ(ca.name(), cb.name());
    EXPECT_EQ(ca.type(), cb.type());
    EXPECT_EQ(ca.decimals(), cb.decimals());
    for (size_t r = 0; r < ca.size(); ++r) {
      ASSERT_EQ(ca.IsNull(r), cb.IsNull(r)) << "col " << c << " row " << r;
      if (ca.IsNull(r)) continue;
      // Bit-exact doubles, not approximate.
      double va = ca.Value(r), vb = cb.Value(r);
      EXPECT_EQ(std::memcmp(&va, &vb, sizeof(double)), 0)
          << "col " << c << " row " << r << ": " << va << " vs " << vb;
    }
    if (ca.type() == DataType::kCategorical) {
      EXPECT_EQ(ca.dictionary(), cb.dictionary());
    }
  }
}

// ---------------------------------------------------------------------------
// CRC + batch codec

TEST(WalCodec, Crc32KnownVector) {
  // The standard zlib check value: crc32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(WalCodec, BatchRoundTripIsBitExact) {
  Table batch = MakeMixedBatch(3);
  std::vector<uint8_t> payload = EncodeWalBatch(17, batch);
  auto decoded = DecodeWalBatch(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch, 17u);
  ExpectTablesBitEqual(batch, decoded->batch);
}

TEST(WalCodec, RejectsTruncatedPayloads) {
  std::vector<uint8_t> payload = EncodeWalBatch(1, MakeMixedBatch(0));
  for (size_t cut : {size_t(0), size_t(1), payload.size() / 2,
                     payload.size() - 1}) {
    auto decoded = DecodeWalBatch(payload.data(), cut);
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

TEST(WalCodec, ParsesFsyncPolicies) {
  EXPECT_EQ(ParseFsyncPolicy("always").value(), WalOptions::Fsync::kAlways);
  EXPECT_EQ(ParseFsyncPolicy("interval").value(),
            WalOptions::Fsync::kInterval);
  EXPECT_EQ(ParseFsyncPolicy("never").value(), WalOptions::Fsync::kNever);
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").ok());
  EXPECT_STREQ(FsyncPolicyName(WalOptions::Fsync::kInterval), "interval");
}

// ---------------------------------------------------------------------------
// WAL file behavior

std::vector<std::vector<uint8_t>> ReplayAll(const std::string& path,
                                            Wal::ReplayResult* out) {
  std::vector<std::vector<uint8_t>> records;
  auto result = Wal::Replay(path, [&](const uint8_t* d, size_t n) {
    records.emplace_back(d, d + n);
    return Status::OK();
  });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok() && out != nullptr) *out = result.value();
  return records;
}

TEST(WalFile, AppendReplayRoundTrip) {
  const std::string path = TestPath("wal_roundtrip.log");
  ::unlink(path.c_str());
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (int i = 0; i < 5; ++i) {
      std::vector<uint8_t> payload(i * 7 + 1, static_cast<uint8_t>(i));
      ASSERT_TRUE(wal->Append(payload).ok());
    }
    EXPECT_EQ(wal->records_written(), 5u);
    EXPECT_GT(wal->fsyncs(), 0u);  // default policy = always
  }
  Wal::ReplayResult rr;
  auto records = ReplayAll(path, &rr);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(rr.records, 5u);
  EXPECT_FALSE(rr.tail_truncated);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(records[i].size(), size_t(i * 7 + 1));
    for (uint8_t byte : records[i]) EXPECT_EQ(byte, i);
  }
  ::unlink(path.c_str());
}

TEST(WalFile, MissingFileIsEmptyLog) {
  Wal::ReplayResult rr;
  auto records = ReplayAll(TestPath("wal_never_created.log"), &rr);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(rr.records, 0u);
  EXPECT_FALSE(rr.tail_truncated);
}

TEST(WalFile, TornTailIsTruncatedAndIdempotent) {
  const std::string path = TestPath("wal_torn.log");
  ::unlink(path.c_str());
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append({1, 2, 3, 4}).ok());
    ASSERT_TRUE(wal->Append({5, 6}).ok());
  }
  // Simulate a crash mid-write: append half of a frame header.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("\x40\x00", 2);
  }
  Wal::ReplayResult rr;
  auto records = ReplayAll(path, &rr);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(rr.tail_truncated);

  // Double recovery: the first replay repaired the file, so the second is
  // clean — same records, no truncation.
  Wal::ReplayResult rr2;
  auto records2 = ReplayAll(path, &rr2);
  ASSERT_EQ(records2.size(), 2u);
  EXPECT_FALSE(rr2.tail_truncated);
  EXPECT_EQ(records[0], records2[0]);
  EXPECT_EQ(records[1], records2[1]);
  ::unlink(path.c_str());
}

TEST(WalFile, CrcBreakAtTailIsTruncated) {
  const std::string path = TestPath("wal_crc_tail.log");
  ::unlink(path.c_str());
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append({1, 2, 3, 4}).ok());
    ASSERT_TRUE(wal->Append({5, 6, 7, 8}).ok());
  }
  // Flip a byte inside the LAST record's payload.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  Wal::ReplayResult rr;
  auto records = ReplayAll(path, &rr);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(rr.tail_truncated);
  EXPECT_EQ(records[0], (std::vector<uint8_t>{1, 2, 3, 4}));
  ::unlink(path.c_str());
}

TEST(WalFile, CrcBreakMidFileIsDataLoss) {
  const std::string path = TestPath("wal_crc_mid.log");
  ::unlink(path.c_str());
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(std::vector<uint8_t>(16, 0xAA)).ok());
    ASSERT_TRUE(wal->Append(std::vector<uint8_t>(16, 0xBB)).ok());
  }
  // Flip a payload byte of the FIRST record: valid data follows, so this
  // cannot be crash damage — replay must refuse, not silently truncate.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(10, std::ios::beg);
    f.put('\x00');
  }
  auto result = Wal::Replay(path, [](const uint8_t*, size_t) {
    return Status::OK();
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  ::unlink(path.c_str());
}

TEST(WalFile, InjectedSyncFaultRepairsTheFile) {
  const std::string path = TestPath("wal_fault.log");
  ::unlink(path.c_str());
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append({1, 2, 3}).ok());

  ASSERT_TRUE(failpoint::Set("wal.append.sync", "error").ok());
  Status st = wal->Append({4, 5, 6});
  failpoint::ClearAll();
  EXPECT_FALSE(st.ok());

  // The NACKed record must not be replayable, and the log stays usable.
  ASSERT_TRUE(wal->Append({7, 8, 9}).ok());
  auto records = ReplayAll(path, nullptr);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(records[1], (std::vector<uint8_t>{7, 8, 9}));
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Durable ServingDb: create / recover

Db MakePowerDb(size_t rows, size_t segment_rows) {
  DbOptions options;
  options.target_segment_rows = segment_rows;
  auto db = Db::FromGenerator("power", rows, 7, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

const std::vector<std::string>& RecoverySqls() {
  static const std::vector<std::string> kSqls = {
      "SELECT COUNT(*) FROM power;",
      "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
      "SELECT SUM(voltage) FROM power WHERE hour < 6;",
      "SELECT COUNT(voltage) FROM power WHERE voltage > 240;",
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
          << context << " group " << g << " field " << k;
    }
  }
}

TEST(DurableServing, CreateAppendRecoverPreservesAnswers) {
  const std::string dir = TestPath("durable_basic");
  RemoveDirIfPresent(dir);
  ServingOptions opts;
  opts.durability.dir = dir;

  std::vector<QueryResult> before(RecoverySqls().size());
  {
    auto sdb = ServingDb::CreateDurable(MakePowerDb(4000, 2000), opts);
    ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
    for (int i = 0; i < 3; ++i) {
      auto batch = MakeDataset("power", 400, 100 + i);
      ASSERT_TRUE(batch.ok());
      ASSERT_TRUE(sdb.value()->Append(batch.value()).ok());
    }
    ServingStats s = sdb.value()->Stats();
    EXPECT_TRUE(s.durable);
    EXPECT_EQ(s.epoch, 3u);
    EXPECT_EQ(s.rows, 4000u + 3 * 400u);
    EXPECT_EQ(s.wal_records, 3u);
    EXPECT_GT(s.wal_bytes, 0u);
    for (size_t q = 0; q < RecoverySqls().size(); ++q) {
      ASSERT_TRUE(
          sdb.value()->Query(RecoverySqls()[q], &before[q]).ok());
    }
  }

  auto recovered = ServingDb::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryInfo& info = recovered.value()->recovery_info();
  EXPECT_EQ(info.checkpoint_epoch, 0u);
  EXPECT_EQ(info.wal_records, 3u);
  EXPECT_EQ(info.wal_records_applied, 3u);
  EXPECT_EQ(info.rows_recovered, 3 * 400u);
  EXPECT_FALSE(info.tail_truncated);
  ServingStats s = recovered.value()->Stats();
  EXPECT_EQ(s.epoch, 3u);
  EXPECT_EQ(s.rows, 4000u + 3 * 400u);

  // Note: the recovered instance serves from the synopsis alone (Db::Open
  // drops the raw table) — answers must still be bit-identical, matching
  // the Save/Open round-trip guarantee.
  for (size_t q = 0; q < RecoverySqls().size(); ++q) {
    QueryResult after;
    ASSERT_TRUE(recovered.value()->Query(RecoverySqls()[q], &after).ok());
    ExpectBitEqual(before[q], after, RecoverySqls()[q]);
  }
  RemoveDirIfPresent(dir);
}

// Recovery re-seals the WAL tail exactly as the live server sealed it:
// Recover opens the checkpoint with the caller's DbOptions, so a logged
// batch larger than target_segment_rows splits into the same segments and
// the recovered server answers bit-identically.
TEST(DurableServing, RecoverHonorsTargetSegmentRows) {
  const std::string dir = TestPath("durable_segment_rows");
  RemoveDirIfPresent(dir);
  ServingOptions opts;
  opts.durability.dir = dir;
  DbOptions db_options;
  db_options.target_segment_rows = 1000;

  std::vector<QueryResult> before(RecoverySqls().size());
  {
    auto db = Db::FromGenerator("power", 4000, 7, db_options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_EQ(db->num_segments(), 4u);
    auto sdb = ServingDb::CreateDurable(std::move(db).value(), opts);
    ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
    auto batch = MakeDataset("power", 2500, 100);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(sdb.value()->Append(batch.value()).ok());
    EXPECT_EQ(sdb.value()->Stats().segments, 7u);
    for (size_t q = 0; q < RecoverySqls().size(); ++q) {
      ASSERT_TRUE(sdb.value()->Query(RecoverySqls()[q], &before[q]).ok());
    }
  }  // dropped without a checkpoint: the batch lives only in the WAL

  auto recovered = ServingDb::Recover(opts, db_options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->recovery_info().checkpoint_epoch, 0u);
  EXPECT_EQ(recovered.value()->recovery_info().wal_records_applied, 1u);
  EXPECT_EQ(recovered.value()->Stats().segments, 7u);
  for (size_t q = 0; q < RecoverySqls().size(); ++q) {
    QueryResult after;
    ASSERT_TRUE(recovered.value()->Query(RecoverySqls()[q], &after).ok());
    ExpectBitEqual(before[q], after, RecoverySqls()[q]);
  }
  RemoveDirIfPresent(dir);
}

TEST(DurableServing, CreateRefusesNonEmptyDir) {
  const std::string dir = TestPath("durable_nonempty");
  RemoveDirIfPresent(dir);
  ServingOptions opts;
  opts.durability.dir = dir;
  {
    auto sdb = ServingDb::CreateDurable(MakePowerDb(1000, 1000), opts);
    ASSERT_TRUE(sdb.ok());
  }
  auto again = ServingDb::CreateDurable(MakePowerDb(1000, 1000), opts);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
  RemoveDirIfPresent(dir);
}

TEST(DurableServing, RecoverWithoutStateIsNotFound) {
  const std::string dir = TestPath("durable_missing");
  RemoveDirIfPresent(dir);
  ServingOptions opts;
  opts.durability.dir = dir;
  auto recovered = ServingDb::Recover(opts);
  EXPECT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

TEST(DurableServing, CheckpointRotatesWalAndSurvivesSkew) {
  const std::string dir = TestPath("durable_skew");
  RemoveDirIfPresent(dir);
  ServingOptions opts;
  opts.durability.dir = dir;
  {
    auto sdb = ServingDb::CreateDurable(MakePowerDb(2000, 1000), opts);
    ASSERT_TRUE(sdb.ok());
    auto b1 = MakeDataset("power", 300, 11);
    auto b2 = MakeDataset("power", 300, 12);
    ASSERT_TRUE(b1.ok() && b2.ok());
    ASSERT_TRUE(sdb.value()->Append(b1.value()).ok());
    ASSERT_TRUE(sdb.value()->Append(b2.value()).ok());

    // Crash between checkpoint-rename and WAL-truncate: the checkpoint at
    // epoch 2 lands but the WAL keeps both already-checkpointed records.
    ASSERT_TRUE(failpoint::Set("checkpoint.truncate_wal", "error").ok());
    Status st = sdb.value()->Checkpoint();
    failpoint::ClearAll();
    EXPECT_FALSE(st.ok());
  }

  auto recovered = ServingDb::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryInfo& info = recovered.value()->recovery_info();
  EXPECT_EQ(info.checkpoint_epoch, 2u);
  EXPECT_EQ(info.wal_records, 2u);          // both read...
  EXPECT_EQ(info.wal_records_applied, 0u);  // ...neither re-applied
  ServingStats s = recovered.value()->Stats();
  EXPECT_EQ(s.epoch, 2u);
  EXPECT_EQ(s.rows, 2000u + 600u);

  // A clean checkpoint on the recovered instance truncates the WAL and
  // drops the stale epoch-0 base checkpoint.
  ASSERT_TRUE(recovered.value()->Checkpoint().ok());
  ServingStats s2 = recovered.value()->Stats();
  EXPECT_EQ(s2.last_checkpoint_epoch, 2u);
  EXPECT_EQ(s2.checkpoints, 1u);
  RemoveDirIfPresent(dir);
}

// A checkpoint failing between its durable tmp file and the rename leaves
// one checkpoint-*.tmp file, recovery ignores it, and the next clean
// checkpoint of the same epoch renames over it, leaving no tmp file.
TEST(DurableServing, CheckpointRenameFailureLeavesOneTmpFile) {
  const std::string dir = TestPath("durable_cp_tmp");
  RemoveDirIfPresent(dir);
  ServingOptions opts;
  opts.durability.dir = dir;
  auto tmp_files = [&dir] {
    std::vector<std::string> tmps;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      const std::string name = e.path().filename().string();
      if (name.find(".tmp") != std::string::npos) tmps.push_back(name);
    }
    return tmps;
  };
  {
    auto sdb = ServingDb::CreateDurable(MakePowerDb(2000, 1000), opts);
    ASSERT_TRUE(sdb.ok());
    EXPECT_TRUE(tmp_files().empty());
    auto b1 = MakeDataset("power", 300, 31);
    ASSERT_TRUE(b1.ok());
    ASSERT_TRUE(sdb.value()->Append(b1.value()).ok());

    ASSERT_TRUE(failpoint::Set("checkpoint.rename", "error").ok());
    Status st = sdb.value()->Checkpoint();
    failpoint::ClearAll();
    EXPECT_FALSE(st.ok());
    const std::vector<std::string> tmps = tmp_files();
    ASSERT_EQ(tmps.size(), 1u);
    EXPECT_EQ(tmps[0].size() - tmps[0].rfind(".tmp"), 4u) << tmps[0];
  }

  auto recovered = ServingDb::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->recovery_info().checkpoint_epoch, 0u);
  EXPECT_EQ(recovered.value()->Stats().rows, 2000u + 300u);
  ASSERT_TRUE(recovered.value()->Checkpoint().ok());
  EXPECT_EQ(recovered.value()->Stats().last_checkpoint_epoch, 1u);
  // The clean checkpoint renamed its own tmp file over the stale one.
  EXPECT_TRUE(tmp_files().empty());
  RemoveDirIfPresent(dir);
}

TEST(DurableServing, RecoverTruncatesTornWalTail) {
  const std::string dir = TestPath("durable_torn");
  RemoveDirIfPresent(dir);
  ServingOptions opts;
  opts.durability.dir = dir;
  {
    auto sdb = ServingDb::CreateDurable(MakePowerDb(2000, 1000), opts);
    ASSERT_TRUE(sdb.ok());
    auto b1 = MakeDataset("power", 300, 21);
    ASSERT_TRUE(b1.ok());
    ASSERT_TRUE(sdb.value()->Append(b1.value()).ok());
  }
  {
    std::ofstream f(dir + "/wal.log", std::ios::binary | std::ios::app);
    f.write("\x99\x00\x00\x00partial", 11);  // torn frame from a crash
  }
  auto recovered = ServingDb::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.value()->recovery_info().tail_truncated);
  EXPECT_EQ(recovered.value()->recovery_info().wal_records_applied, 1u);
  EXPECT_EQ(recovered.value()->Stats().rows, 2300u);

  // The new instance keeps appending to the repaired WAL.
  auto b2 = MakeDataset("power", 300, 22);
  ASSERT_TRUE(b2.ok());
  ASSERT_TRUE(recovered.value()->Append(b2.value()).ok());
  RemoveDirIfPresent(dir);
}

TEST(DurableServing, BackgroundCheckpointerRotates) {
  const std::string dir = TestPath("durable_bg");
  RemoveDirIfPresent(dir);
  ServingOptions opts;
  opts.durability.dir = dir;
  opts.durability.checkpoint_interval_ms = 25;
  {
    auto sdb = ServingDb::CreateDurable(MakePowerDb(2000, 1000), opts);
    ASSERT_TRUE(sdb.ok());
    auto b = MakeDataset("power", 200, 31);
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(sdb.value()->Append(b.value()).ok());
    for (int spin = 0; spin < 100; ++spin) {
      if (sdb.value()->Stats().checkpoints > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ServingStats s = sdb.value()->Stats();
    EXPECT_GE(s.checkpoints, 1u);
    EXPECT_EQ(s.last_checkpoint_epoch, 1u);
  }
  auto recovered = ServingDb::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->recovery_info().checkpoint_epoch, 1u);
  EXPECT_EQ(recovered.value()->Stats().rows, 2200u);
  RemoveDirIfPresent(dir);
}

TEST(DurableServing, TakeDbIsUnsupportedWhenDurable) {
  const std::string dir = TestPath("durable_takedb");
  RemoveDirIfPresent(dir);
  ServingOptions opts;
  opts.durability.dir = dir;
  auto sdb = ServingDb::CreateDurable(MakePowerDb(1000, 1000), opts);
  ASSERT_TRUE(sdb.ok());
  auto taken = sdb.value()->TakeDb();
  EXPECT_FALSE(taken.ok());
  EXPECT_EQ(taken.status().code(), StatusCode::kUnsupported);
  RemoveDirIfPresent(dir);
}

}  // namespace
}  // namespace pairwisehist
