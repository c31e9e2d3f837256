// dashboard: HTTP /query through HttpServer + MakeServingHandler /
// MakeServingBatchHandler over an in-memory ServingDb holding one
// monolithic synopsis. A closed loop of one keep-alive connection
// pipelines 8-statement pages (COUNT(*) plus every aggregate of one
// column over one three-predicate WHERE clause) drawn from a fixed pool of
// 96 pages — 768 statements, inside the plan cache — so after warm-up the serve
// layer (HTTP/JSON, plan-cache hits, burst batching) does most of the
// work and parse/compile almost none. With one connection no two
// requests are in flight at once, so the read coalescer never groups.
// Fresh data then arrives as an open-loop run of POST /append batches,
// and a save → reopen restart closes the run.
#include <memory>
#include <string>
#include <thread>

#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/service.h"
#include "storage/csv.h"
#include "workloads.h"

namespace perfbench {

using pairwisehist::DbOptions;
using pairwisehist::HttpServer;
using pairwisehist::ServingDb;

namespace {

constexpr size_t kRows = 200000;
constexpr size_t kPages = 96;  // 768 statements
// Plan-cache entries: room for every statement even when the 8 shards
// fill unevenly (the 1024 default gives each shard 128).
constexpr size_t kPlanCache = 4096;
constexpr size_t kPageSize = 8;
// One keep-alive connection: with two, client and connection threads fill
// all four vCPUs of the reference machine, and statement throughput moved
// by 45 % between runs as the hypervisor took vCPUs away.
constexpr unsigned kClients = 1;
constexpr double kMinSelectivity = 1e-3;
constexpr size_t kBatchRows = 500;
constexpr double kAppendInterval = 0.030;

DbOptions Options() {
  DbOptions o;
  o.keep_table = false;  // serving needs no raw table; appends stay cheap
  o.build_threads = 1;
  o.exec_threads = 1;
  return o;
}

/// The serving stack of one set-up: ServingDb behind an HTTP server.
struct Stack {
  std::unique_ptr<ServingDb> serving;
  std::unique_ptr<HttpServer> server;
  void Stop() {
    if (server != nullptr) server->Stop();
    server.reset();
    serving.reset();
  }
};

/// One client's view of the run: latencies plus its cache of response
/// bodies already checked against the in-process answers.
struct ClientLog {
  std::vector<TimedSample> query_us, page_us;
  double slot_time[2] = {0, 0};
  uint64_t slot_ops[2] = {0, 0};
  uint64_t statements = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> verified;  ///< per pool statement
};

}  // namespace

Status RunDashboard(const Args& args, Report* report) {
  RunConfig cfg;
  cfg.workload = "dashboard";
  cfg.seed = args.seed;
  cfg.rows = kRows;
  cfg.clients = kClients;
  cfg.server_threads = kClients;  // one connection thread per keep-alive
  cfg.exec_threads = Options().exec_threads;
  cfg.build_threads = Options().build_threads;
  PH_RETURN_IF_ERROR(cfg.Guard());
  // Client, accept and connection threads all inherit this one CPU, so a
  // page's round trip never waits for another virtual CPU to wake.
  PH_ASSIGN_OR_RETURN(const std::vector<int> cpus, PinnableCpus(1));
  PH_RETURN_IF_ERROR(PinThisThread(cpus[0]));
  cfg.cpus = std::to_string(cpus[0]);
  report->Note("config     " + cfg.Describe());

  // Inputs, outside every timed region; the pages are drawn from the seed
  // once the set-up synopsis exists.
  PH_ASSIGN_OR_RETURN(Table table, MakeTable(kRows));
  const std::string first_body = QueryBody(FirstQuerySql(table));
  PH_ASSIGN_OR_RETURN(std::vector<Table> batches, MakeBatches(8, kBatchRows));
  std::vector<std::string> csvs;
  for (const Table& b : batches) csvs.push_back(pairwisehist::ToCsvString(b));
  report->Phase("inputs");

  // Set-up: raw table in hand → server answering its first HTTP query.
  if (args.trace) Tracer::Enable(true);
  Stack stack;
  std::vector<double> setups;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    Table copy = table.Slice(0, table.NumRows());
    stack.Stop();
    Span span("dashboard.setup");
    const double t0 = NowS();
    StatusOr<Db> db = [&] {
      Span s("api.Db::FromTable");
      return Db::FromTable(std::move(copy), Options());
    }();
    if (!db.ok()) return db.status();
    pairwisehist::ServingOptions so;
    so.plan_cache_capacity = kPlanCache;
    stack.serving =
        std::make_unique<ServingDb>(std::move(db).value(), so);
    stack.server = std::make_unique<HttpServer>(
        pairwisehist::MakeServingHandler(stack.serving.get()),
        pairwisehist::MakeServingBatchHandler(stack.serving.get()));
    {
      Span s("serve.HttpServer::Start");
      PH_RETURN_IF_ERROR(stack.server->Start(0));
    }
    PipelinedClient client;
    PH_RETURN_IF_ERROR(client.Connect(stack.server->port()));
    std::vector<PipelinedClient::Response> resp;
    {
      Span s("serve.http_query");
      PH_RETURN_IF_ERROR(client.Page("/query", {first_body}, &resp));
    }
    if (resp[0].status != 200) {
      return Status::Internal("dashboard: first query answered " +
                              std::to_string(resp[0].status));
    }
    setups.push_back(NowS() - t0);
  }
  Tracer::Enable(false);
  ServingDb* serving = stack.serving.get();
  const double bytes_per_row =
      static_cast<double>(serving->snapshot()->db.StorageBytes()) /
      static_cast<double>(kRows);
  report->Phase("setup");

  size_t redrawn = 0;
  PH_ASSIGN_OR_RETURN(
      auto pages,
      MakePages(table, args.seed, kPages, kPageSize, kMinSelectivity,
                ContractScreen(serving->snapshot()->db), &redrawn));
  // A redrawn page holds at least one statement that broke the contract.
  GateContract("pages", (pages.size() + redrawn) * kPageSize, redrawn,
               report);
  std::vector<Statement> pool;
  std::vector<std::vector<std::string>> bodies;
  for (const auto& page : pages) {
    bodies.emplace_back();
    for (const Statement& st : page) {
      pool.push_back(st);
      bodies.back().push_back(QueryBody(st.sql));
    }
  }

  // Accuracy of the served synopsis on the stratified accuracy pool (the
  // 96 page clauses alone are too few to pin a median error down).
  size_t acc_redrawn = 0;
  PH_ASSIGN_OR_RETURN(
      std::vector<Statement> acc_pool,
      MakeStatementPool(table, args.seed, kAccuracyPerStratum,
                        kMinSelectivity,
                        ContractScreen(serving->snapshot()->db),
                        &acc_redrawn));
  PH_ASSIGN_OR_RETURN(const Accuracy acc,
                      AccuracyOn(serving->snapshot()->db, table, acc_pool));
  GateContract("accuracy pool", acc_pool.size() + acc_redrawn,
               acc_redrawn + acc.broken, report);
  report->Phase("pool");

  // In-process answers for the same epoch: the reference every HTTP
  // answer must equal.
  std::vector<QueryResult> expected(pool.size());
  uint64_t epoch = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    ++report->attempted;
    Status st = serving->Query(pool[i].sql, &expected[i], &epoch);
    if (!st.ok()) {
      report->Fail("ServingDb::Query: " + st.ToString());
      continue;
    }
    const std::string bad = CheckAnswer(pool[i], expected[i]);
    if (!bad.empty()) report->Fail(bad);
  }

  // Measured reads: closed loop, each client pipelining whole pages after
  // a warm-up. With --trace 1 untraced and traced slots alternate.
  const double read_secs = args.seconds * 0.6;
  const size_t appends_n =
      static_cast<size_t>(args.seconds * 0.3 / kAppendInterval);
  const double warm_secs = 0.5;
  const pairwisehist::ServingStats reads_before = serving->Stats();
  const double t_start = NowS() + warm_secs;
  const double t_end = t_start + read_secs;
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> threads;
  const uint16_t port = stack.server->port();
  for (unsigned t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ClientLog& log = logs[t];
      log.verified.assign(pool.size(), "");
      PipelinedClient client;
      if (!client.Connect(port).ok()) {
        ++log.failed;
        log.failures.push_back("connect failed");
        return;
      }
      std::vector<PipelinedClient::Response> resp;
      for (size_t k = t * (kPages / kClients);; ++k) {
        const double t0 = NowS();
        if (t0 >= t_end) break;
        const bool measured = t0 >= t_start;
        const int slot = TracedSlot(args.trace && measured, t0, t_start);
        Tracer::EnableThisThread(slot);
        const size_t pg = k % kPages;
        Tracer::SetRequest(Tracer::NextRequestId());
        Span span("dashboard.page");
        Status st = client.Page("/query", bodies[pg], &resp);
        const double t1 = NowS();
        if (!measured) continue;
        log.statements += kPageSize;
        if (!st.ok()) {
          log.failed += kPageSize;
          log.failures.push_back(st.ToString());
          if (!client.Connect(port).ok()) return;
          continue;
        }
        log.page_us.push_back({t1, (t1 - t0) * 1e6});
        log.slot_time[slot] += t1 - t0;
        ++log.slot_ops[slot];
        for (size_t j = 0; j < kPageSize; ++j) {
          const size_t idx = pg * kPageSize + j;
          log.query_us.push_back({resp[j].done_s, (resp[j].done_s - t0) * 1e6});
          if (resp[j].status == 200 && resp[j].body == log.verified[idx]) {
            continue;
          }
          uint64_t got_epoch = 0;
          QueryResult got;
          if (resp[j].status != 200 ||
              !ParseQueryResponse(resp[j].body, &got_epoch, &got) ||
              got_epoch != epoch || !BitEqual(got, expected[idx])) {
            ++log.failed;
            if (log.failures.size() < 4) {
              log.failures.push_back("HTTP answer differs from in-process: " +
                                     pool[idx].sql);
            }
            continue;
          }
          log.verified[idx] = resp[j].body;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const pairwisehist::ServingStats reads_after = serving->Stats();
  Tracer::Enable(args.trace);
  report->Phase("reads");

  EndToEnd e;
  e.read_begin = t_start;
  e.read_end = t_end;
  double slot_time[2] = {0, 0};
  uint64_t slot_ops[2] = {0, 0};
  for (ClientLog& log : logs) {
    report->attempted += log.statements;
    for (uint64_t f = 0; f < log.failed; ++f) {
      report->Fail(f < log.failures.size() ? log.failures[f]
                                           : "HTTP statement failed");
    }
    e.query_us.insert(e.query_us.end(), log.query_us.begin(),
                      log.query_us.end());
    e.page_us.insert(e.page_us.end(), log.page_us.begin(), log.page_us.end());
    for (int h = 0; h < 2; ++h) {
      slot_time[h] += log.slot_time[h];
      slot_ops[h] += log.slot_ops[h];
    }
  }

  // The traced run's probe decomposes the reads, so it works on the
  // synopsis they ran against.
  LayerCounters c;
  const std::string probe_path = args.work_dir + "/probe.pws3";
  if (args.trace) {
    c.overhead_pct = OverheadPct(slot_time, slot_ops);
    FillServeCounters(reads_before, reads_after, &c);
    PH_RETURN_IF_ERROR(serving->snapshot()->db.Save(probe_path));
  }

  // Fresh data: POST /append on an open-loop schedule; each answer must
  // report the row count so far.
  pairwisehist::HttpClient writer;
  PH_RETURN_IF_ERROR(writer.Connect("127.0.0.1", port));
  uint64_t rows = kRows;
  e.appends = RunOpenLoop(
      appends_n, kAppendInterval,
      [&](size_t k) -> std::string {
        Span s("serve.http_append");
        auto resp = writer.Request("POST", "/append", csvs[k % csvs.size()],
                                   "text/csv");
        if (!resp.ok()) return "POST /append: " + resp.status().ToString();
        if (resp->status != 200) {
          return "POST /append answered " + std::to_string(resp->status);
        }
        auto doc = pairwisehist::ParseJson(resp->body);
        const auto* n = doc.ok() ? doc->Find("rows") : nullptr;
        if (n == nullptr ||
            n->number != static_cast<double>(rows + kBatchRows)) {
          return "POST /append reported a wrong row count";
        }
        rows += kBatchRows;
        return "";
      },
      report);
  writer.Close();
  stack.server->Stop();
  report->Phase("appends");

  // Restart of the state the run left: save → reopen + verify + answer.
  const std::string path = args.work_dir + "/dashboard.pws3";
  auto snap = serving->snapshot();
  PH_ASSIGN_OR_RETURN(double recover_s,
                      MeasureRestart(snap->db, path, pool, kRestartReps,
                                     cfg.exec_threads, report));
  snap.reset();
  Tracer::Enable(false);
  report->Phase("restart");

  e.setup_s = Median(setups);
  e.recover_s = recover_s;
  e.accuracy = acc;
  e.bytes_per_row = bytes_per_row;
  EmitEndToEnd(e, report);

  if (args.trace) {
    ProbeInput in;
    in.saved_path = probe_path;
    in.table = &table;
    in.pool = &pool;
    in.batches = &batches;
    in.workload_serves = true;
    in.work_dir = args.work_dir;
    PH_RETURN_IF_ERROR(RunLayerProbe(in, &c, report));
    EmitLayerMetrics(c, report);
  }
  stack.Stop();
  return Status::OK();
}

}  // namespace perfbench
