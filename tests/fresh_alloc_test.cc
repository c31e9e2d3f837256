// Allocation budgets for a fresh statement: the parse → compile → execute
// path every Db::ExecuteSql (and every serving plan-cache miss) runs,
// averaged over a 1400-statement pool of the benchmark's ad-hoc mix on a
// GreedyGD-compressed power synopsis. Also the budget of a synopsis
// build's pair phase: a pair allocates only its output arrays, and the
// scratch its worker reuses grows a bounded number of times. Heap
// allocations are counted with a global counting allocator, so the budgets
// are exact and repeatable.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "core/pairwise_hist.h"
#include "datagen/datasets.h"
#include "gd/preprocess.h"
#include "hist/histogram.h"
#include "query/sql_parser.h"
#include "tests/statement_pool.h"

// Global allocation counter (this binary only), as in fastpath_test:
// disabled under AddressSanitizer, whose operator new/delete interceptors
// a malloc-based replacement would trip; the regular CI job enforces the
// budgets.
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

constexpr size_t kRows = 20000;
constexpr size_t kPerStratum = 40;  // 35 strata: 1400 statements

// Budgets per statement, averaged over the pool.
constexpr double kParseBudget = 3.0;
constexpr double kExecuteSqlBudget = 16.0;

class FreshStatementAllocation : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto table = MakeDataset("power", kRows, 1);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    pool_ = new std::vector<std::string>(
        StatementPool(table.value(), /*seed=*/3, kPerStratum));
    DbOptions options;
    options.compress = true;  // the paper's configuration
    auto db = Db::FromTable(std::move(table).value(), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = new Db(std::move(db).value());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete pool_;
  }

  static std::vector<std::string>* pool_;
  static Db* db_;
};

std::vector<std::string>* FreshStatementAllocation::pool_ = nullptr;
Db* FreshStatementAllocation::db_ = nullptr;

TEST_F(FreshStatementAllocation, PoolIsTheFullMix) {
  EXPECT_EQ(pool_->size(), 35 * kPerStratum);
}

TEST_F(FreshStatementAllocation, ParseSqlStaysInBudget) {
#if !PH_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under AddressSanitizer";
#endif
  size_t failed = 0;
  const size_t before = g_alloc_count.load();
  for (const std::string& sql : *pool_) failed += ParseSql(sql).ok() ? 0 : 1;
  const size_t allocs = g_alloc_count.load() - before;
  ASSERT_EQ(failed, 0u);
  const double per = static_cast<double>(allocs) / pool_->size();
  std::printf("ParseSql: %.2f allocations per statement\n", per);
  EXPECT_LE(per, kParseBudget);
}

TEST_F(FreshStatementAllocation, ExecuteSqlStaysInBudget) {
#if !PH_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under AddressSanitizer";
#endif
  // One warm pass fills the engines' and executor's scratch pools.
  for (const std::string& sql : *pool_) {
    ASSERT_TRUE(db_->ExecuteSql(sql).ok()) << sql;
  }
  size_t failed = 0;
  const size_t before = g_alloc_count.load();
  for (const std::string& sql : *pool_) {
    failed += db_->ExecuteSql(sql).ok() ? 0 : 1;
  }
  const size_t allocs = g_alloc_count.load() - before;
  ASSERT_EQ(failed, 0u);
  const double per = static_cast<double>(allocs) / pool_->size();
  std::printf("Db::ExecuteSql: %.2f allocations per statement\n", per);
  EXPECT_LE(per, kExecuteSqlBudget);
}

// ---- Synopsis construction: the pair phase --------------------------------

// The heap blocks one BuildPairHistogram call keeps in its ArrayHolder:
// edges, counts, v−, v+, unique and parent per dimension, and the two cell
// prefixes.
constexpr size_t kPairOutputBlocks = 14;
// The blocks a fresh PairBuildScratch may allocate while its arrays grow to
// a build's sizes, independent of the number of pairs: the row-sized arrays
// once each, the grid- and edge-sized ones once per doubling of capacity.
constexpr size_t kScratchGrowthBlocks = 128;

// Every pair of `table` built the way one build worker builds them: shared
// ranks binned against the synopsis's own 1-d histograms, one scratch. The
// first pass starts from a fresh scratch, the second reuses it warm. Both
// keep their pairs in one holder, cleared between passes, whose own list
// grows only during the first.
void ExpectPairPhaseInBudget(const char* dataset) {
  auto table = MakeDataset(dataset, kRows, 1);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  auto pre = Preprocess(*table);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  PairwiseHistConfig cfg;
  cfg.sample_size = 0;  // every row, in row order
  auto ph = PairwiseHist::Build(*pre, nullptr, cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  std::vector<ColumnRanks> ranks;
  for (size_t c = 0; c < pre->NumColumns(); ++c) {
    std::vector<double> values(pre->NumRows());
    for (size_t r = 0; r < values.size(); ++r) {
      const uint64_t code = pre->codes[c][r];
      values[r] = code == kMissingCode ? std::nan("")
                                       : static_cast<double>(code);
    }
    ranks.emplace_back(std::move(values));
    ranks.back().AssignBins(ph->hist1d(c));
  }
  RefineConfig refine;
  refine.min_points = ph->min_points();
  refine.alpha = ph->alpha();
  Chi2CriticalCache critical(ph->alpha());

  PairBuildScratch scratch;
  ArrayHolder arrays;
  size_t npairs = 0;
  auto build_all = [&]() {
    npairs = 0;
    arrays.Clear();
    const size_t before = g_alloc_count.load();
    for (uint32_t i = 1; i < ranks.size(); ++i) {
      for (uint32_t j = 0; j < i; ++j, ++npairs) {
        PairHistogram pair =
            BuildPairHistogram(ranks[i], ranks[j], i, j, ph->hist1d(i),
                               ph->hist1d(j), refine, critical, &scratch,
                               &arrays);
        // Pairs are slotted in this loop's order.
        EXPECT_TRUE(std::ranges::equal(pair.cell_colpre_i,
                                       ph->pair_at(npairs).cell_colpre_i));
      }
    }
    return g_alloc_count.load() - before;
  };
  const size_t cold = build_all();
  const size_t warm = build_all();
  std::printf("%s: %zu pairs, %zu allocations with a fresh scratch, %zu "
              "with a warm one\n",
              dataset, npairs, cold, warm);
  ASSERT_GT(npairs, 1u);
  EXPECT_LE(warm, kPairOutputBlocks * npairs);
  EXPECT_LE(cold, kPairOutputBlocks * npairs + kScratchGrowthBlocks);
}

TEST(PairBuildAllocation, APairAllocatesOnlyItsOutputArrays) {
#if !PH_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under AddressSanitizer";
#endif
  ExpectPairPhaseInBudget("power");
  ExpectPairPhaseInBudget("flights");
}

}  // namespace
}  // namespace pairwisehist
