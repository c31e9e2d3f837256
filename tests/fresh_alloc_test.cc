// Allocation budgets for a fresh statement: the parse → compile → execute
// path every Db::ExecuteSql (and every serving plan-cache miss) runs,
// averaged over a 1400-statement pool of the benchmark's ad-hoc mix on a
// GreedyGD-compressed power synopsis. Heap allocations are counted with a
// global counting allocator, so the budgets are exact and repeatable.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "datagen/datasets.h"
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

}  // namespace
}  // namespace pairwisehist
