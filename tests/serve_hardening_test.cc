// Adversarial serving-layer tests: malformed-input fuzz corpora for the
// JSON and CSV entry points, raw-socket framing abuse (garbage requests,
// oversized headers, huge Content-Length), deadline enforcement, load
// shedding under injected slowness, fault injection on pipelined reads,
// client retry-with-backoff, idle-peer reaping, and graceful drain. Runs in the ASan CI leg — "never crashes"
// here means never crashes under ASan.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "common/failpoint.h"
#include "datagen/datasets.h"
#include "storage/csv.h"
#include "serve/http_client.h"
#include "serve/http_io.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/service.h"
#include "serve/serving_db.h"

namespace pairwisehist {
namespace {

Db MakePowerDb(size_t rows) {
  auto db = Db::FromGenerator("power", rows, 7);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// A small schema-complete CSV batch for /append.
std::string SmallCsv(uint64_t seed) {
  auto batch = MakeDataset("power", 50, seed);
  EXPECT_TRUE(batch.ok());
  return ToCsvString(batch.value());
}

HttpRequest MakeReq(
    const std::string& method, const std::string& path,
    const std::string& body = "",
    const std::vector<std::pair<std::string, std::string>>& headers = {}) {
  HttpRequest req;
  req.method = method;
  req.path = path;
  req.body = body;
  req.headers = headers;
  req.arrival = std::chrono::steady_clock::now();
  return req;
}

// Raw-socket helper: sends exact wire bytes, returns the response status
// (-1 when the server closed without answering).
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  int SendAndReadStatus(const std::string& wire) {
    HttpConn conn(fd_);
    if (!conn.Write(wire).ok()) return -1;
    HttpMessage msg;
    bool closed = false;
    if (!conn.Read(&msg, &closed).ok() || closed) return -1;
    // "HTTP/1.1 400 Bad Request"
    const size_t sp = msg.start_line.find(' ');
    if (sp == std::string::npos) return -1;
    return std::atoi(msg.start_line.c_str() + sp + 1);
  }

  /// True when the peer has closed (recv sees EOF).
  bool PeerClosed(uint32_t wait_ms) {
    timeval tv{};
    tv.tv_sec = wait_ms / 1000;
    tv.tv_usec = (wait_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char c;
    return ::recv(fd_, &c, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
};

// ---------------------------------------------------------------------------
// Malformed-input fuzz: every corpus entry must answer 4xx — never 5xx,
// never a crash, and the serving stack must stay usable afterwards.

// Malformed /query bodies: every one must be rejected with a 4xx.
const std::vector<std::string>& MalformedJsonCorpus() {
  static const std::vector<std::string> kCorpus = {
      "",                                  // empty body
      "{",                                 // truncated object
      "{\"sql\":",                         // truncated value
      "{\"sql\": \"SELECT",                // unterminated string
      "{\"sql\": \"a\\",                   // dangling escape
      "{\"sql\": \"\\u12",                 // truncated unicode escape
      "{\"sql\": \"\\ud800\"}",            // lone surrogate
      "\"just a string\"",                 // top level not an object
      "42",                                // top level number
      "[1,2,3]",                           // top level array
      "{\"sql\": 42}",                     // sql not a string
      "{\"sql\": null}",                   // sql null
      "{\"nosql\": \"x\"}",                // missing key
      "{\"sql\": 42, \"sql\": [1]}",       // duplicate keys, both invalid
      "{\"sql\": 1e99999}",                // number overflow
      "{\"sql\": -1e-99999}",              // number underflow
      "{\"sql\": \"x\"} trailing",         // trailing garbage
      "{\"sql\": \"x\",}",                 // trailing comma
      std::string("{\"sql\":\"a\0b\"}", 14),  // embedded NUL
      "{\"sql\": \"\xff\xfe invalid utf8\"}",  // bad UTF-8 bytes
      std::string(100, '['),               // deep unbalanced nesting
      "{\"sql\": tru}",                    // broken literal
  };
  return kCorpus;
}

class ServeFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    serving_ = std::make_unique<ServingDb>(MakePowerDb(4000));
    handler_ = MakeServingHandler(serving_.get());
  }
  void ExpectRejected(const std::string& path, const std::string& body,
                      const char* tag) {
    const HttpResponse resp = handler_(MakeReq("POST", path, body));
    EXPECT_GE(resp.status, 400) << tag << ": " << resp.body;
    EXPECT_LT(resp.status, 500) << tag << ": " << resp.body;
  }
  void ExpectAlive() {
    const HttpResponse resp = handler_(
        MakeReq("POST", "/query", "{\"sql\":\"SELECT COUNT(*) FROM power;\"}"));
    EXPECT_EQ(resp.status, 200) << resp.body;
  }

  std::unique_ptr<ServingDb> serving_;
  HttpServer::Handler handler_;
};

TEST_F(ServeFuzz, MalformedJsonNeverCrashesAlwaysRejected) {
  const std::vector<std::string>& corpus = MalformedJsonCorpus();
  for (size_t i = 0; i < corpus.size(); ++i) {
    ExpectRejected("/query", corpus[i],
                   ("json corpus " + std::to_string(i)).c_str());
  }
  const std::vector<std::string> batch_corpus = {
      "{\"sqls\": \"not a list\"}",
      "{\"sqls\": {}}",
      "{\"sqls\": [42]}",
      "{\"sqls\": [\"SELECT COUNT(*) FROM power;\", 7]}",
      "{}",
  };
  for (size_t i = 0; i < batch_corpus.size(); ++i) {
    ExpectRejected("/batch", batch_corpus[i],
                   ("batch corpus " + std::to_string(i)).c_str());
  }
  ExpectAlive();
}

// The /query body scan (ParseJsonStringMember) decides exactly what the
// tree parse does: ParseJson, then Find("sql"), then the string check.
// Same SQL, or the same Status code and message (offsets included), for
// the malformed corpus and for valid bodies that put other members,
// whitespace, escapes and duplicate keys around "sql".
Status SqlByTreeParse(const std::string& body, std::string* sql) {
  auto doc = ParseJson(body);
  if (!doc.ok()) return doc.status();
  const JsonValue* v = doc->Find("sql");
  if (v == nullptr || v->type != JsonValue::Type::kString) {
    return Status::NotFound("JSON: no string member \"sql\"");
  }
  *sql = v->str;
  return Status::OK();
}

TEST(ServeJsonScan, StringMemberMatchesTreeParse) {
  std::vector<std::string> bodies = MalformedJsonCorpus();
  const std::string deep = std::string(70, '[') + std::string(70, ']');
  const std::vector<std::string> variants = {
      "{\"sql\":\"SELECT 1\"}",
      "{\"a\":1,\"sql\":\"S\"}",
      "{\"sql\":\"S\",\"b\":[1,{\"c\":[true,false,null]},\"x\"]}",
      "{\"pre\":{\"sql\":\"nested\"},\"list\":[{\"sql\":7}],\"sql\":\"top\"}",
      "{\"pre\":{\"sql\":\"only nested\"}}",
      "[{\"sql\":\"in an array\"}]",
      " \n\t{ \r\n\"sql\" \t:\n \"S\" \r, \"n\" : [ 1 , { } ] }\n ",
      "{\"sql\":\"a\\/b\\\"c\\\\d\\u00e9\\ud83d\\ude00\\n\\t\\b\\f\\r\"}",
      "{\"s\\u0071l\":\"escaped key\"}",
      "{\"sql\":\"first\",\"sql\":42}",
      "{\"sql\":42,\"sql\":\"second\"}",
      "{\"sql\":\"first\",\"sql\":\"second\"}",
      "{\"n\":-1.5e-3,\"sql\":\"S\",\"m\":1e-99999,\"z\":0}",
      "{\"sql\":\"S\",\"x\":01}",
      "{\"sql\":\"S\",\"x\":+1}",
      "{\"sql\":\"S\",\"x\":1e99999}",
      "{\"sql\":\"S\",\"x\":\"\\q\"}",
      "{\"sql\":\"S\",\"x\":" + deep + "}",
      "{\"x\":" + deep + ",\"sql\":\"S\"}",
      "{\"sql\":\"S\"",
      "{\"sql\":\"S\"} {}",
      "{\"sql\":\"\"}",
      "{}",
      "null",
  };
  bodies.insert(bodies.end(), variants.begin(), variants.end());
  for (const std::string& body : bodies) {
    std::string want, got = "stale";
    const Status want_st = SqlByTreeParse(body, &want);
    const Status got_st = ParseJsonStringMember(body, "sql", &got);
    EXPECT_EQ(got_st.code(), want_st.code()) << body;
    EXPECT_EQ(got_st.message(), want_st.message()) << body;
    if (want_st.ok() && got_st.ok()) EXPECT_EQ(got, want) << body;
  }
  // A spot check that the variants cover each outcome.
  std::string sql;
  EXPECT_TRUE(ParseJsonStringMember(variants[9], "sql", &sql).ok());
  EXPECT_EQ(sql, "first");
  EXPECT_EQ(ParseJsonStringMember(variants[10], "sql", &sql).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParseJsonStringMember(variants[13], "sql", &sql).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseJsonStringMember(variants[8], "sql", &sql).ok());
  EXPECT_EQ(sql, "escaped key");
}

TEST_F(ServeFuzz, MalformedCsvNeverCrashesAlwaysRejected) {
  const std::vector<std::string> corpus = {
      "",                                      // empty body
      "\n\n\n",                                // blank lines only
      "wrong,schema\n1,2\n",                   // unknown columns
      "global_active_power\nnot_a_number\n",   // unparsable numeric
      "global_active_power,voltage\n1.5\n",    // short row
      "global_active_power,voltage\n1.5,2,3\n",  // long row
      "global_active_power\n\xff\xfe\n",       // bad UTF-8 in a field
      "global_active_power\n1.5",              // truncated final row (no \n)
      std::string("global_active_power\n1\0.5\n", 25),  // embedded NUL
      "\"unterminated quote\nglobal_active_power\n1\n",
  };
  for (size_t i = 0; i < corpus.size(); ++i) {
    const HttpRequest req = MakeReq("POST", "/append", corpus[i]);
    const HttpResponse resp = handler_(req);
    EXPECT_GE(resp.status, 400) << "csv corpus " << i << ": " << resp.body;
    EXPECT_LT(resp.status, 500) << "csv corpus " << i << ": " << resp.body;
  }
  // Oddball-but-parseable inputs may be accepted or rejected; they must
  // simply never 5xx or corrupt the instance.
  const std::vector<std::string> weird = {
      "global_active_power\n1e308\n",          // near-overflow double
      "global_active_power\n-1e-320\n",        // subnormal
      "global_active_power\n999999999999999999999999\n",
  };
  for (size_t i = 0; i < weird.size(); ++i) {
    const HttpResponse resp = handler_(MakeReq("POST", "/append", weird[i]));
    EXPECT_NE(resp.status / 100, 5) << "weird corpus " << i << ": "
                                    << resp.body;
  }
  EXPECT_EQ(serving_->Stats().errors, 0u);  // handler errors are client 4xx
  ExpectAlive();
}

// ---------------------------------------------------------------------------
// Raw-socket framing abuse against a live server.

class RawSocketAbuse : public ::testing::Test {
 protected:
  void SetUp() override {
    serving_ = std::make_unique<ServingDb>(MakePowerDb(4000));
    HttpServerOptions opts;
    opts.idle_timeout_ms = 0;  // tests control their own lifetimes
    server_ = std::make_unique<HttpServer>(MakeServingHandler(serving_.get()),
                                           nullptr, opts);
    ASSERT_TRUE(server_->Start(0).ok());
  }
  void TearDown() override { server_->Stop(); }

  std::unique_ptr<ServingDb> serving_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(RawSocketAbuse, GarbageRequestAnswers400AndCloses) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(conn.SendAndReadStatus("THIS IS NOT HTTP\r\n\r\n"), 400);
  EXPECT_TRUE(conn.PeerClosed(2000));
  EXPECT_GE(server_->malformed_closed(), 1u);

  // A well-formed client on a fresh connection is unaffected.
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto resp = client.Request("POST", "/query",
                             "{\"sql\":\"SELECT COUNT(*) FROM power;\"}");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
}

// A statement nested 100,000 parentheses deep (200 KB, far under the body
// cap) is refused at the parser's nesting limit instead of recursing the
// connection thread off its stack; the server keeps answering.
TEST_F(RawSocketAbuse, DeeplyNestedSqlAnswers400AndServerLives) {
  const int depth = 100000;
  const std::string sql = "SELECT COUNT(*) FROM power WHERE " +
                          std::string(depth, '(') + "hour > 3" +
                          std::string(depth, ')') + ";";
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto resp = client.Request("POST", "/query", "{\"sql\":\"" + sql + "\"}");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 400) << resp->body;
  EXPECT_NE(resp->body.find("nesting too deep"), std::string::npos)
      << resp->body;

  auto next = client.Request("POST", "/query",
                             "{\"sql\":\"SELECT COUNT(*) FROM power;\"}");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->status, 200) << next->body;
}

TEST_F(RawSocketAbuse, MissingVersionAndBadContentLengthAre400) {
  {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.ok());
    EXPECT_EQ(conn.SendAndReadStatus("GET /stats\r\n\r\n"), 400);
  }
  {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.ok());
    EXPECT_EQ(conn.SendAndReadStatus("POST /query HTTP/1.1\r\n"
                                     "Content-Length: banana\r\n\r\n"),
              400);
  }
  {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.ok());
    EXPECT_EQ(conn.SendAndReadStatus("POST /query HTTP/1.1\r\n"
                                     "no-colon-header\r\n\r\n"),
              400);
  }
}

TEST_F(RawSocketAbuse, OversizedHeadersAnswer413BeforeBuffering) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  std::string wire = "GET /stats HTTP/1.1\r\nX-Filler: ";
  wire.append(kMaxHttpHeaderBytes + 1024, 'a');
  wire += "\r\n\r\n";
  EXPECT_EQ(conn.SendAndReadStatus(wire), 413);
  EXPECT_TRUE(conn.PeerClosed(2000));
}

TEST_F(RawSocketAbuse, HugeContentLengthAnswers413WithoutWaitingForBody) {
  // The declared body never arrives — the cap must trip on the header
  // alone, not after buffering 64 MB.
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(conn.SendAndReadStatus("POST /append HTTP/1.1\r\n"
                                   "Content-Length: 999999999999\r\n\r\n"),
            413);
  RawConn conn2(server_->port());
  ASSERT_TRUE(conn2.ok());
  const std::string just_over =
      "POST /append HTTP/1.1\r\nContent-Length: " +
      std::to_string(kMaxHttpBodyBytes + 1) + "\r\n\r\n";
  EXPECT_EQ(conn2.SendAndReadStatus(just_over), 413);
}

TEST_F(RawSocketAbuse, IdlePeersAreReaped) {
  HttpServerOptions opts;
  opts.idle_timeout_ms = 50;
  ServingDb serving(MakePowerDb(4000));
  HttpServer server(MakeServingHandler(&serving), nullptr, opts);
  ASSERT_TRUE(server.Start(0).ok());

  RawConn idle(server.port());
  ASSERT_TRUE(idle.ok());
  // Poll slices are 100 ms; well within 2 s the reaper must close us.
  EXPECT_TRUE(idle.PeerClosed(2000));
  EXPECT_GE(server.idle_reaped(), 1u);

  // Reconnecting works (the reap freed the slot, nothing leaked).
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto resp = client.Request("GET", "/stats");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Deadlines.

TEST(ServeDeadline, ExpiredDeadlineAnswers408WithoutExecuting) {
  ServingDb serving(MakePowerDb(4000));
  ServiceGate gate;
  auto handler = MakeServingHandler(&serving, &gate);

  HttpRequest req = MakeReq("POST", "/query",
                            "{\"sql\":\"SELECT COUNT(*) FROM power;\"}",
                            {{"X-Deadline-Ms", "10"}});
  req.arrival = std::chrono::steady_clock::now() -
                std::chrono::milliseconds(100);
  const HttpResponse resp = handler(req);
  EXPECT_EQ(resp.status, 408) << resp.body;
  EXPECT_EQ(gate.stats().timeouts, 1u);
  EXPECT_EQ(serving.Stats().queries, 0u);  // never reached execution

  // A generous deadline executes normally.
  const HttpResponse ok = handler(MakeReq(
      "POST", "/query", "{\"sql\":\"SELECT COUNT(*) FROM power;\"}",
      {{"X-Deadline-Ms", "60000"}}));
  EXPECT_EQ(ok.status, 200);
}

TEST(ServeDeadline, DefaultDeadlineAppliesWithoutHeader) {
  ServingDb serving(MakePowerDb(4000));
  ServiceLimits limits;
  limits.default_deadline_ms = 10;
  ServiceGate gate(limits);
  auto handler = MakeServingHandler(&serving, &gate);

  HttpRequest req =
      MakeReq("POST", "/query", "{\"sql\":\"SELECT COUNT(*) FROM power;\"}");
  req.arrival =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(100);
  EXPECT_EQ(handler(req).status, 408);
  // /stats is exempt from deadlines and admission — it must stay
  // observable exactly when the system is in trouble.
  HttpRequest stats = MakeReq("GET", "/stats");
  stats.arrival =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(100);
  EXPECT_EQ(handler(stats).status, 200);
}

// ---------------------------------------------------------------------------
// Load shedding.

class ServeShedding : public ::testing::Test {
 protected:
  void SetUp() override {
    serving_ = std::make_unique<ServingDb>(MakePowerDb(4000));
    ServiceLimits limits;
    limits.max_inflight = 4;
    limits.max_inflight_appends = 1;
    limits.retry_after_ms = 1500;
    gate_ = std::make_unique<ServiceGate>(limits);
    server_ = std::make_unique<HttpServer>(
        MakeServingHandler(serving_.get(), gate_.get()));
    ASSERT_TRUE(server_->Start(0).ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }
  void TearDown() override {
    failpoint::ClearAll();
    server_->Stop();
  }

  std::unique_ptr<ServingDb> serving_;
  std::unique_ptr<ServiceGate> gate_;
  std::unique_ptr<HttpServer> server_;
  HttpClient client_;
};

TEST_F(ServeShedding, AppendsShedBeforeReads) {
  // Hit 1 of service.handle sleeps, pinning the single append slot while
  // the rest of the test runs.
  ASSERT_TRUE(failpoint::Set("service.handle", "delay:700@1").ok());
  std::thread occupier([&] {
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
    auto resp = c.Request("POST", "/append", SmallCsv(1), "text/csv");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 200) << resp->body;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Second append: shed with Retry-After. Reads still admitted.
  auto shed = client_.Request("POST", "/append", SmallCsv(2), "text/csv");
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->status, 503) << shed->body;
  const std::string* retry_after = nullptr;
  for (const auto& h : shed->headers) {
    if (h.first == "Retry-After") retry_after = &h.second;
  }
  ASSERT_NE(retry_after, nullptr) << "503 must carry Retry-After";
  EXPECT_EQ(*retry_after, "2");  // 1500 ms rounded up to whole seconds

  auto read = client_.Request("POST", "/query",
                              "{\"sql\":\"SELECT COUNT(*) FROM power;\"}");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->status, 200) << read->body;

  occupier.join();
  const ServiceGate::Stats stats = gate_->stats();
  EXPECT_EQ(stats.shed_appends, 1u);
  EXPECT_EQ(stats.shed_reads, 0u);
  EXPECT_EQ(stats.inflight, 0u);  // everything released
}

TEST_F(ServeShedding, RetryWithBackoffSucceedsOnceCapacityFrees) {
  ASSERT_TRUE(failpoint::Set("service.handle", "delay:500@1").ok());
  std::thread occupier([&] {
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
    auto resp = c.Request("POST", "/append", SmallCsv(1), "text/csv");
    ASSERT_TRUE(resp.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  HttpRetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 100;
  policy.max_backoff_ms = 300;
  auto resp = client_.RequestWithRetry("POST", "/append", SmallCsv(2),
                                       "text/csv", {}, policy);
  occupier.join();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200) << resp->body;
  EXPECT_GE(client_.retries(), 1u);
  EXPECT_GE(gate_->stats().shed_appends, 1u);
}

TEST_F(ServeShedding, RetryGivesUpAfterMaxAttempts) {
  ASSERT_TRUE(failpoint::Set("service.handle", "delay:1500@1").ok());
  std::thread occupier([&] {
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
    (void)c.Request("POST", "/append", SmallCsv(1), "text/csv");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  HttpRetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_ms = 20;
  policy.max_backoff_ms = 40;
  auto resp = client_.RequestWithRetry("POST", "/append", SmallCsv(2),
                                       "text/csv", {}, policy);
  ASSERT_TRUE(resp.ok());  // transport worked; the answer is still a 503
  EXPECT_EQ(resp->status, 503);
  occupier.join();
}

// ---------------------------------------------------------------------------
// Fault injection on every read shape.

// service.handle fires once per admitted statement whether a read arrives
// alone, as a pipelined /query burst, or as the only /query of a burst
// beside another endpoint; the gated /stats beside it is unaffected.
TEST(ServeFailpoint, ServiceHandleFiresOnPipelinedReads) {
  ServingDb serving(MakePowerDb(4000));
  ServiceGate gate;
  HttpServer::Handler handler = MakeServingHandler(&serving, &gate);
  HttpServer::BatchHandler batch_handler =
      MakeServingBatchHandler(&serving, &gate);
  const HttpRequest query =
      MakeReq("POST", "/query", "{\"sql\":\"SELECT COUNT(*) FROM power;\"}");
  const HttpRequest stats = MakeReq("GET", "/stats");

  ASSERT_TRUE(failpoint::Set("service.handle", "error").ok());
  const int single = handler(query).status;
  const std::vector<HttpResponse> burst = batch_handler({query, query});
  const std::vector<HttpResponse> mixed = batch_handler({query, stats});
  failpoint::ClearAll();

  EXPECT_EQ(single, 500);
  ASSERT_EQ(burst.size(), 2u);
  EXPECT_EQ(burst[0].status, 500) << burst[0].body;
  EXPECT_EQ(burst[1].status, 500) << burst[1].body;
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed[0].status, 500) << mixed[0].body;
  EXPECT_EQ(mixed[1].status, 200) << mixed[1].body;

  // Disarmed, the same burst answers; every admission was released.
  for (const HttpResponse& resp : batch_handler({query, query})) {
    EXPECT_EQ(resp.status, 200) << resp.body;
  }
  EXPECT_EQ(gate.stats().inflight, 0u);
}

// ---------------------------------------------------------------------------
// Graceful drain.

TEST(ServeDrain, InflightRequestsFinishNewConnectionsRefused) {
  ServingDb serving(MakePowerDb(4000));
  ServiceGate gate;
  HttpServer server(MakeServingHandler(&serving, &gate));
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();

  ASSERT_TRUE(failpoint::Set("service.handle", "delay:400@1").ok());
  std::atomic<int> slow_status{0};
  std::thread slow([&] {
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", port).ok());
    auto resp = c.Request("POST", "/query",
                          "{\"sql\":\"SELECT COUNT(*) FROM power;\"}");
    if (resp.ok()) slow_status.store(resp->status);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  server.Drain(/*grace_ms=*/5000);
  slow.join();
  failpoint::ClearAll();

  // The in-flight request completed with its real answer during drain.
  EXPECT_EQ(slow_status.load(), 200);
  EXPECT_FALSE(server.running());

  // New connections are refused (or immediately closed) after drain.
  HttpClient late;
  Status connect_st = late.Connect("127.0.0.1", port);
  if (connect_st.ok()) {
    auto resp = late.Request("GET", "/stats");
    EXPECT_FALSE(resp.ok());
  }
}

}  // namespace
}  // namespace pairwisehist
