// Serving-tax allocation budgets: a warm 8-statement dashboard page of
// plan-cache hits, counted allocation by allocation at each layer of the
// pipelined /query path — HttpConn framing, the burst handler (body scan,
// plan lookup, batch execution, response bodies) and ServingDb::Query.
// Each budget is asserted, not assumed, with the counting allocator below.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "serve/http_io.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/service.h"
#include "serve/serving_db.h"

// ---------------------------------------------------------------------------
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

constexpr int kWarmRounds = 3;
constexpr int kRounds = 50;

// One dashboard page: COUNT(*) and every aggregate of one column over one
// three-predicate WHERE clause.
const std::vector<std::string>& PageSqls() {
  static const std::vector<std::string> kSqls = [] {
    const std::string where =
        " FROM power WHERE hour >= 6 AND voltage > 236 AND "
        "global_intensity < 20;";
    std::vector<std::string> sqls = {"SELECT COUNT(*)" + where};
    for (const char* f :
         {"COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "VAR"}) {
      sqls.push_back(std::string("SELECT ") + f + "(global_active_power)" +
                     where);
    }
    return sqls;
  }();
  return kSqls;
}

std::string QueryBody(const std::string& sql) {
  std::string body = "{\"sql\":";
  AppendJsonString(&body, sql);
  body += "}";
  return body;
}

// The wire form HttpClient sends for a /query request.
std::string QueryWire(const std::string& sql) {
  const std::string body = QueryBody(sql);
  return "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
         "application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::unique_ptr<ServingDb> MakeServing() {
  auto db = Db::FromGenerator("power", 20000, 7);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::make_unique<ServingDb>(std::move(db).value());
}

TEST(ServeAllocation, BatchHandlerPageOfHitsStaysInBudget) {
#if !PH_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under AddressSanitizer";
#endif
  auto serving = MakeServing();
  const HttpServer::BatchHandler handler =
      MakeServingBatchHandler(serving.get());
  std::vector<HttpRequest> reqs;
  for (const std::string& sql : PageSqls()) {
    HttpRequest req;
    req.method = "POST";
    req.path = "/query";
    req.body = QueryBody(sql);
    req.headers = {{"Host", "127.0.0.1"},
                   {"Content-Type", "application/json"},
                   {"Content-Length", std::to_string(req.body.size())}};
    reqs.push_back(std::move(req));
  }
  for (int i = 0; i < kWarmRounds; ++i) {
    const std::vector<HttpResponse> resps = handler(reqs);
    ASSERT_EQ(resps.size(), reqs.size());
    for (const HttpResponse& r : resps) ASSERT_EQ(r.status, 200) << r.body;
  }
  const size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) handler(reqs);
  const size_t after = g_alloc_count.load(std::memory_order_relaxed);
  const double per_stmt = static_cast<double>(after - before) /
                          static_cast<double>(kRounds * reqs.size());
  RecordProperty("allocations_per_statement", std::to_string(per_stmt));
  // 37 allocations per 8-statement page (measured): the handler's
  // per-burst vectors, those QueryBatch fills included, and the response
  // bodies. ServingDb's own read bookkeeping is pooled.
  EXPECT_LE(per_stmt, 4.625) << "allocations per statement";
  EXPECT_EQ(serving->Stats().cache_misses, reqs.size());
}

TEST(ServeAllocation, HttpConnParsesPipelinedPageInBudget) {
#if !PH_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under AddressSanitizer";
#endif
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string page;
  std::vector<std::string> bodies;
  for (const std::string& sql : PageSqls()) {
    page += QueryWire(sql);
    bodies.push_back(QueryBody(sql));
  }
  const size_t n = PageSqls().size();
  HttpConn conn(fds[1]);
  HttpMessage msg;
  // One page: the first message through Read, its pipelined followers
  // through TryReadBuffered, as the server's connection loop drains them.
  // Counts the messages that parsed with the expected body and headers.
  auto read_page = [&]() -> size_t {
    size_t got = 0;
    if (::send(fds[0], page.data(), page.size(), 0) !=
        static_cast<ssize_t>(page.size())) {
      return 0;
    }
    auto matches = [&] {
      return got < n && msg.body == bodies[got] &&
             msg.FindHeader("content-type") != nullptr;
    };
    bool closed = false;
    if (!conn.Read(&msg, &closed).ok() || closed || !matches()) return 0;
    ++got;
    Status st;
    while (conn.TryReadBuffered(&msg, &st) && matches()) ++got;
    return st.ok() ? got : 0;
  };
  for (int i = 0; i < kWarmRounds; ++i) ASSERT_EQ(read_page(), n);
  size_t parsed = 0;
  const size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) parsed += read_page();
  const size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(parsed, kRounds * n);
  const double per_msg =
      static_cast<double>(after - before) / static_cast<double>(kRounds * n);
  EXPECT_LE(per_msg, 3.0) << "allocations per message";
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeAllocation, ServingDbQueryHitIsAllocationFree) {
#if !PH_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under AddressSanitizer";
#endif
  auto serving = MakeServing();
  QueryResult r;
  for (int i = 0; i < kWarmRounds; ++i) {
    for (const std::string& sql : PageSqls()) {
      ASSERT_TRUE(serving->Query(sql, &r).ok()) << sql;
    }
  }
  const size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) {
    for (const std::string& sql : PageSqls()) (void)serving->Query(sql, &r);
  }
  const size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << static_cast<double>(after - before) /
             static_cast<double>(kRounds * PageSqls().size())
      << " allocations per statement";
  EXPECT_EQ(serving->Stats().cache_misses, PageSqls().size());
}

}  // namespace
}  // namespace pairwisehist
