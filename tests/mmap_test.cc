// Tests for PWS3 zero-copy memory-mapped synopsis persistence: mmap-vs-heap
// bit-equality across kernel tiers and exec-thread counts (with the mapped
// file byte-unchanged by the reads), appends that seal heap segments next
// to mapped ones, rejection of torn/truncated/corrupt files with a clean
// Status, multi-process shared opens, the PWH_OPEN environment override,
// and the legacy PWS2 fixture regression (transparent heap conversion +
// re-save as PWS3).
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "core/pws3.h"
#include "core/synopsis_set.h"
#include "datagen/datasets.h"
#include "storage/mmap_file.h"

namespace pairwisehist {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, 8);
  return b;
}

// Bit-identical result comparison: the acceptance bar for the mmap path is
// exactness, not tolerance — the mapped arrays are the same bytes the heap
// path decodes, so every downstream double must match bit for bit.
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

// Fixed query shapes (every aggregate, AND/OR, GROUP BY) plus randomized
// range predicates generated per test from a fixed seed.
const char* kFixedWorkload[] = {
    "SELECT COUNT(*) FROM power;",
    "SELECT COUNT(*) FROM power WHERE voltage > 240;",
    "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;",
    "SELECT SUM(sub_metering_3) FROM power WHERE voltage > 240 AND "
    "hour < 12;",
    "SELECT MIN(voltage) FROM power WHERE voltage > 235 AND voltage < 245;",
    "SELECT MAX(global_intensity) FROM power WHERE hour < 6 OR hour > 22;",
    "SELECT MEDIAN(global_active_power) FROM power WHERE day_of_week = 6;",
    "SELECT VAR(global_active_power) FROM power WHERE hour > 6;",
    "SELECT AVG(global_active_power) FROM power GROUP BY day_of_week;",
    "SELECT COUNT(*) FROM power GROUP BY day_of_week;",
};

std::vector<std::string> MakeWorkload(uint32_t seed, size_t randomized) {
  std::vector<std::string> sqls;
  for (const char* sql : kFixedWorkload) sqls.push_back(sql);
  std::mt19937 rng(seed);
  const char* aggs[] = {"COUNT(*)", "AVG(global_active_power)",
                        "SUM(global_intensity)", "MIN(voltage)",
                        "MAX(sub_metering_3)"};
  for (size_t i = 0; i < randomized; ++i) {
    const double vlo = 228.0 + (rng() % 160) / 10.0;
    const int hlo = static_cast<int>(rng() % 20);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "SELECT %s FROM power WHERE voltage > %.1f AND hour >= %d;",
                  aggs[rng() % 5], vlo, hlo);
    sqls.push_back(buf);
  }
  return sqls;
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

class MmapTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbOptions options;
    options.synopsis.sample_size = 3000;
    options.target_segment_rows = 6000;  // 24000 rows -> 4 segments
    auto db = Db::FromGenerator("power", 24000, 7, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    pws3_path_ = new std::string(::testing::TempDir() + "/mmap_test.pws3");
    pws2_path_ = new std::string(::testing::TempDir() + "/mmap_test.pws2");
    ASSERT_TRUE(db->Save(*pws3_path_, SaveFormat::kPws3).ok());
    ASSERT_TRUE(db->Save(*pws2_path_, SaveFormat::kPws2).ok());
  }
  static void TearDownTestSuite() {
    std::remove(pws3_path_->c_str());
    std::remove(pws2_path_->c_str());
    delete pws3_path_;
    delete pws2_path_;
  }

  static Db OpenOrDie(const std::string& path, OpenMode mode,
                      KernelMode kernels = KernelMode::kAuto,
                      unsigned exec_threads = 0) {
    DbOptions options;
    options.open_mode = mode;
    options.engine.kernels = kernels;
    options.exec_threads = exec_threads;
    auto db = Db::Open(path, options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }

  static std::string* pws3_path_;
  static std::string* pws2_path_;
};

std::string* MmapTest::pws3_path_ = nullptr;
std::string* MmapTest::pws2_path_ = nullptr;

// The hard safety rail: for every kernel tier and both serial and parallel
// cross-segment execution, a mmap-opened Db answers bit-identically to a
// heap-opened one over fixed + randomized workloads, and the mapped file is
// byte-unchanged after the whole workload (reads never write a mapping).
TEST_F(MmapTest, MmapBitEqualsHeapAcrossKernelsAndThreads) {
  const std::vector<std::string> sqls = MakeWorkload(11, 20);
  const std::vector<uint8_t> file_before = ReadAll(*pws3_path_);
  ASSERT_FALSE(file_before.empty());
  for (KernelMode kernels : {KernelMode::kScalar, KernelMode::kWidest}) {
    for (unsigned threads : {1u, 8u}) {
      Db heap = OpenOrDie(*pws3_path_, OpenMode::kHeap, kernels, threads);
      Db mmap = OpenOrDie(*pws3_path_, OpenMode::kMmap, kernels, threads);
      EXPECT_FALSE(heap.mapped());
      ASSERT_TRUE(mmap.mapped());
      EXPECT_GT(mmap.mapped_bytes(), 0u);
      EXPECT_EQ(mmap.num_segments(), 4u);
      EXPECT_EQ(mmap.total_rows(), heap.total_rows());
      for (const std::string& sql : sqls) {
        auto h = heap.ExecuteSql(sql);
        auto m = mmap.ExecuteSql(sql);
        ASSERT_TRUE(h.ok()) << sql << ": " << h.status().ToString();
        ASSERT_TRUE(m.ok()) << sql << ": " << m.status().ToString();
        ExpectBitEqual(h.value(), m.value(),
                       sql + " kernels=" +
                           std::to_string(static_cast<int>(kernels)) +
                           " threads=" + std::to_string(threads));
      }
    }
  }
  EXPECT_EQ(ReadAll(*pws3_path_), file_before);
}

// The PWS3 image decodes to the same synopsis as the compact PWS2 one
// (both round-trip the built synopsis exactly), so answers agree bit for
// bit across formats too.
TEST_F(MmapTest, Pws3AgreesWithPws2AcrossFormats) {
  Db pws2 = OpenOrDie(*pws2_path_, OpenMode::kHeap);
  Db pws3 = OpenOrDie(*pws3_path_, OpenMode::kMmap);
  for (const std::string& sql : MakeWorkload(13, 10)) {
    auto a = pws2.ExecuteSql(sql);
    auto b = pws3.ExecuteSql(sql);
    ASSERT_TRUE(a.ok() && b.ok()) << sql;
    ExpectBitEqual(a.value(), b.value(), sql);
  }
}

// Appending to a mmap-opened Db seals new heap segments next to the
// borrowed ones (no write ever lands on the read-only mapping) and stays
// bit-identical to the same append on a heap-opened Db.
TEST_F(MmapTest, AppendAfterMmapOpenStaysBitEqual) {
  Db heap = OpenOrDie(*pws3_path_, OpenMode::kHeap);
  Db mmap = OpenOrDie(*pws3_path_, OpenMode::kMmap);
  auto batch = MakeDataset("power", 3000, 99);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(heap.Append(batch.value()).ok());
  ASSERT_TRUE(mmap.Append(batch.value()).ok());
  EXPECT_TRUE(mmap.mapped());  // original segments still borrow the file
  EXPECT_EQ(mmap.num_segments(), heap.num_segments());
  EXPECT_EQ(mmap.total_rows(), 27000u);
  for (const std::string& sql : MakeWorkload(17, 10)) {
    auto h = heap.ExecuteSql(sql);
    auto m = mmap.ExecuteSql(sql);
    ASSERT_TRUE(h.ok() && m.ok()) << sql;
    ExpectBitEqual(h.value(), m.value(), sql);
  }
}

TEST_F(MmapTest, CorruptFilesRejectedCleanly) {
  const std::vector<uint8_t> good = ReadAll(*pws3_path_);
  ASSERT_GT(good.size(), 128u);
  const std::string path = ::testing::TempDir() + "/mmap_corrupt.pws3";

  struct Case {
    const char* name;
    std::vector<uint8_t> bytes;
  };
  std::vector<Case> cases;
  cases.push_back({"empty", {}});
  cases.push_back(
      {"header only half written",
       std::vector<uint8_t>(good.begin(), good.begin() + 32)});
  cases.push_back({"truncated tail", std::vector<uint8_t>(
                                         good.begin(), good.end() - 7)});
  {
    std::vector<uint8_t> b = good;
    b[b.size() - 3] ^= 0xff;  // flip a metadata byte -> CRC mismatch
    cases.push_back({"metadata bit flip", std::move(b)});
  }
  {
    std::vector<uint8_t> b = good;
    b[1] ^= 0xff;  // bad magic
    cases.push_back({"bad magic", std::move(b)});
  }
  {
    std::vector<uint8_t> b = good;
    b[8] ^= 0x01;  // header file_size no longer matches the real size
    cases.push_back({"file size mismatch", std::move(b)});
  }

  for (const Case& c : cases) {
    WriteAll(path, c.bytes);
    for (OpenMode mode : {OpenMode::kMmap, OpenMode::kHeap}) {
      auto db = Db::Open(path, [&] {
        DbOptions o;
        o.open_mode = mode;
        return o;
      }());
      EXPECT_FALSE(db.ok()) << c.name;
    }
    auto set = SynopsisSet::OpenMapped(path);
    EXPECT_FALSE(set.ok()) << c.name;
  }
  std::remove(path.c_str());
}

// Two processes mapping the same synopsis file share one page-cache copy;
// both must answer queries independently.
TEST_F(MmapTest, MultiProcessSharedOpen) {
  const std::string sql = "SELECT COUNT(*) FROM power;";
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: open + query; report via exit code only (no gtest here).
    // The child asserts a mapping, so it asks for one explicitly rather
    // than relying on kAuto (which PWH_OPEN=heap redirects).
    DbOptions options;
    options.open_mode = OpenMode::kMmap;
    auto db = Db::Open(*pws3_path_, options);
    if (!db.ok() || !db->mapped()) _exit(1);
    auto r = db->ExecuteSql(sql);
    _exit(r.ok() && r->Scalar().estimate == 24000.0 ? 0 : 2);
  }
  Db db = OpenOrDie(*pws3_path_, OpenMode::kMmap);
  auto r = db.ExecuteSql(sql);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->Scalar().estimate, 24000.0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// PWH_OPEN overrides the kAuto default (how CI forces one path globally);
// an explicit open_mode always wins over the environment.
TEST_F(MmapTest, EnvOverrideSelectsOpenPath) {
  ::setenv("PWH_OPEN", "heap", 1);
  {
    auto db = Db::Open(*pws3_path_);
    ASSERT_TRUE(db.ok());
    EXPECT_FALSE(db->mapped());
    Db forced = OpenOrDie(*pws3_path_, OpenMode::kMmap);
    EXPECT_TRUE(forced.mapped());
  }
  ::setenv("PWH_OPEN", "mmap", 1);
  {
    auto db = Db::Open(*pws3_path_);
    ASSERT_TRUE(db.ok());
    EXPECT_TRUE(db->mapped());
    Db forced = OpenOrDie(*pws3_path_, OpenMode::kHeap);
    EXPECT_FALSE(forced.mapped());
  }
  ::unsetenv("PWH_OPEN");
}

// The mapping must outlive any Db sharing its segments: snapshots taken
// with WithAppended keep borrowing after the original Db is destroyed.
TEST_F(MmapTest, MappingOutlivesOriginalDbAcrossSnapshots) {
  auto batch = MakeDataset("power", 1500, 31);
  ASSERT_TRUE(batch.ok());
  StatusOr<Db> snapshot = Status::Internal("unset");
  {
    Db db = OpenOrDie(*pws3_path_, OpenMode::kMmap);
    snapshot = db.WithAppended(batch.value());
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  }  // original Db destroyed; shared segments keep the mapping alive
  EXPECT_TRUE(snapshot->mapped());
  auto r = snapshot->ExecuteSql("SELECT COUNT(*) FROM power;");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->Scalar().estimate, 25500.0);
}

// Regression: a checked-in PWS2 file written by the pre-PWS3 code opens
// transparently (heap conversion), answers queries, and re-saves as PWS3
// with bit-identical answers.
TEST_F(MmapTest, LegacyPws2FixtureOpensAndUpgrades) {
#ifndef PWH_TESTDATA_DIR
  GTEST_SKIP() << "PWH_TESTDATA_DIR not defined";
#else
  const std::string fixture =
      std::string(PWH_TESTDATA_DIR) + "/legacy_power.pws2";
  auto legacy = Db::Open(fixture);  // kAuto: legacy files heap-convert
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_FALSE(legacy->mapped());
  EXPECT_EQ(legacy->total_rows(), 12000u);

  const std::string upgraded = ::testing::TempDir() + "/upgraded.pws3";
  ASSERT_TRUE(legacy->Save(upgraded).ok());  // default format: PWS3
  Db reopened = OpenOrDie(upgraded, OpenMode::kMmap);
  ASSERT_TRUE(reopened.mapped());
  for (const std::string& sql : MakeWorkload(19, 8)) {
    auto a = legacy->ExecuteSql(sql);
    auto b = reopened.ExecuteSql(sql);
    ASSERT_TRUE(a.ok() && b.ok()) << sql;
    ExpectBitEqual(a.value(), b.value(), sql);
  }
  std::remove(upgraded.c_str());
#endif
}

// MappedFile unit coverage: open/advise/move semantics, missing files,
// atomic replacement, and mapping survival across rename-over (the
// checkpoint-rotation property ServingDb relies on).
TEST(MappedFileTest, OpenAdviseMoveAndAtomicReplace) {
  const std::string path = ::testing::TempDir() + "/mmap_unit.bin";
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  ASSERT_TRUE(WriteFileAtomic(path, payload.data(), payload.size()).ok());

  auto mf = MappedFile::Open(path);
  ASSERT_TRUE(mf.ok()) << mf.status().ToString();
  ASSERT_EQ(mf->size(), payload.size());
  EXPECT_EQ(0, std::memcmp(mf->bytes().data(), payload.data(),
                           payload.size()));
  mf->Advise(MappedFile::Advice::kSequential);
  mf->Advise(MappedFile::Advice::kWillNeed);

  // Atomically replace the file while mapped: the old mapping still sees
  // the old bytes (POSIX rename-over semantics).
  const std::vector<uint8_t> fresh = {9, 9, 9};
  ASSERT_TRUE(WriteFileAtomic(path, fresh.data(), fresh.size()).ok());
  EXPECT_EQ(mf->bytes()[0], 1);
  auto mf2 = MappedFile::Open(path);
  ASSERT_TRUE(mf2.ok());
  EXPECT_EQ(mf2->size(), 3u);
  EXPECT_EQ(mf2->bytes()[0], 9);

  MappedFile moved = std::move(mf).value();
  EXPECT_EQ(moved.size(), payload.size());

  EXPECT_FALSE(MappedFile::Open(path + ".nope").ok());
  DropFileCache(path);  // best-effort, must not fail or crash
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pairwisehist
