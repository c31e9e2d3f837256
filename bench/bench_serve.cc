// Serving-layer benchmark: closed-loop HTTP clients against the embedded
// server (serve/ServingDb + serve/http_server.h), measuring sustained QPS
// and latency percentiles for grid-sharing dashboard traffic in three
// client modes: `pipelined` (each page is one pipelined burst, which the
// server batch-executes on the connection thread), `unpipelined` (one
// statement per round trip, each executed alone), and
// `pipelined_with_appends` (pipelined while a writer streams /append
// batches concurrently). The pipelined/unpipelined ratio is the
// batch-execution win delivered end-to-end: statements sharing an
// aggregation grid run as one batch, so coverage + weighting run once per
// page instead of once per statement. Emits BENCH_serve.json for CI's
// perf trajectory; exits non-zero on any HTTP error.
//
// Environment knobs (see bench_util.h for the shared ones):
//   PH_SCALE_ROWS     dataset rows (default 200000)
//   PH_SERVE_CLIENTS  closed-loop client connections (default 16)
//   PH_SERVE_SECS     measured seconds per scenario (default 2)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/db.h"
#include "bench/bench_util.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/service.h"
#include "serve/serving_db.h"
#include "storage/csv.h"

using namespace pairwisehist;
using namespace pairwisehist::bench;

namespace {

// The grid-sharing dashboard page: every aggregate of one filtered view
// (the five-predicate shape — the engine's most coverage-heavy scalar
// query). All eight statements share one aggregation grid + predicate, so
// a batch-executed page pays coverage + weighting once while only the
// cheap per-aggregate readout runs per statement.
const std::vector<std::string>& GridSharingSqls() {
  static const std::vector<std::string> kSqls = []() {
    const std::string where =
        " FROM power WHERE hour >= 6 AND voltage > 236 AND "
        "global_intensity > 0.4 AND sub_metering_3 < 20 AND "
        "day_of_week < 6;";
    std::vector<std::string> sqls;
    for (const char* agg :
         {"COUNT", "SUM", "AVG", "VAR", "MIN", "MAX", "MEDIAN", "MEAN"}) {
      sqls.push_back(std::string("SELECT ") + agg +
                     "(global_active_power)" + where);
    }
    return sqls;
  }();
  return kSqls;
}

struct ScenarioResult {
  std::string name;
  uint64_t pages = 0;     ///< pipelined rounds completed
  uint64_t requests = 0;  ///< statements (pages * page size)
  uint64_t errors = 0;
  double seconds = 0;
  double qps = 0;       ///< statements per second
  double p50_us = 0;    ///< page (8-statement round) latency percentiles
  double p99_us = 0;
  double p999_us = 0;
  uint64_t singles = 0;           ///< statements executed alone
  uint64_t batch_groups = 0;      ///< pipelined bursts batch-executed
  uint64_t batch_statements = 0;  ///< statements inside those bursts
  uint64_t cache_hits = 0;
  uint64_t appends = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t idx = std::min(
      sorted.size() - 1, static_cast<size_t>(q * (sorted.size() - 1) + 0.5));
  return sorted[idx];
}

Db BuildDb(size_t rows) {
  DbOptions options;
  options.synopsis.sample_size = rows / 2;
  // High-resolution synopsis (small M): dashboards trade build time for
  // tighter bounds, and the resulting large aggregation grids are exactly
  // where batch execution's shared coverage + weighting pays off.
  options.synopsis.min_points_override = 64;
  // Serving doesn't need the raw table; keep_table=false makes the
  // copy-on-append snapshots cheap (no O(rows) table copy per append).
  options.keep_table = false;
  auto db = Db::FromGenerator("power", rows, 71, options);
  if (!db.ok()) {
    std::fprintf(stderr, "build failed: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(db).value();
}

/// Sends one dashboard page down `client`: as one pipelined burst, or one
/// statement per round trip. True when every statement answered 200.
bool SendPage(HttpClient* client, const std::vector<std::string>& bodies,
              bool pipelined) {
  if (pipelined) {
    auto resps = client->RequestPipelined("POST", "/query", bodies);
    if (!resps.ok()) return false;
    for (const HttpResponse& resp : resps.value()) {
      if (resp.status != 200) return false;
    }
    return true;
  }
  for (const std::string& body : bodies) {
    auto resp = client->Request("POST", "/query", body);
    if (!resp.ok() || resp->status != 200) return false;
  }
  return true;
}

/// Runs one closed-loop scenario: `clients` connections hammering /query
/// for `secs` seconds; optionally a writer posting /append batches.
ScenarioResult RunScenario(const std::string& name, size_t rows,
                           size_t clients, double secs, bool pipelined,
                           bool with_appends) {
  ServingDb serving(BuildDb(rows));
  HttpServer server(MakeServingHandler(&serving),
                    MakeServingBatchHandler(&serving));
  Status st = server.Start(0);
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }

  const std::vector<std::string>& sqls = GridSharingSqls();
  std::vector<std::string> bodies;
  for (const std::string& sql : sqls) {
    std::string body = "{\"sql\":";
    AppendJsonString(&body, sql);
    body += "}";
    bodies.push_back(body);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};

  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        errors.fetch_add(1);
        ready.fetch_add(1);
        return;
      }
      latencies[t].reserve(1 << 14);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      // Each round is one dashboard page down the keep-alive connection.
      while (!stop.load(std::memory_order_acquire)) {
        const double t0 = NowSeconds();
        const bool ok = SendPage(&client, bodies, pipelined);
        const double dt = NowSeconds() - t0;
        if (!ok) {
          errors.fetch_add(1);
        } else {
          latencies[t].push_back(dt * 1e6);
        }
      }
    });
  }
  std::thread writer;
  if (with_appends) {
    writer = std::thread([&] {
      auto batch = MakeDataset("power", 5000, 1234);
      if (!batch.ok()) return;
      const std::string csv = ToCsvString(batch.value());
      HttpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return;
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (!stop.load(std::memory_order_acquire)) {
        auto resp = client.Request("POST", "/append", csv, "text/csv");
        if (!resp.ok() || resp->status != 200) {
          errors.fetch_add(1);
          return;
        }
        // Pace appends: one new sealed segment every ~300 ms.
        for (int i = 0; i < 30 && !stop.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    });
  }

  while (ready.load() < clients) std::this_thread::yield();
  const double t0 = NowSeconds();
  go.store(true, std::memory_order_release);
  while (NowSeconds() - t0 < secs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  if (writer.joinable()) writer.join();
  const double elapsed = NowSeconds() - t0;
  server.Stop();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  const ServingStats stats = serving.Stats();
  ScenarioResult r;
  r.name = name;
  r.pages = all.size();
  r.requests = all.size() * sqls.size();
  r.errors = errors.load();
  r.seconds = elapsed;
  r.qps = elapsed > 0 ? static_cast<double>(r.requests) / elapsed : 0;
  r.p50_us = Percentile(all, 0.50);
  r.p99_us = Percentile(all, 0.99);
  r.p999_us = Percentile(all, 0.999);
  r.singles = stats.queries;
  r.batch_groups = stats.batches;
  r.batch_statements = stats.batch_statements;
  r.cache_hits = stats.cache_hits;
  r.appends = stats.appends;
  return r;
}

}  // namespace

int main() {
  Banner("Serving layer: closed-loop HTTP clients, pipelined vs not");
  const size_t rows = EnvSize("PH_SCALE_ROWS", 200000);
  const size_t clients = EnvSize("PH_SERVE_CLIENTS", 16);
  const double secs =
      static_cast<double>(EnvSize("PH_SERVE_SECS", 2));

  std::vector<ScenarioResult> results;
  results.push_back(RunScenario("pipelined", rows, clients, secs,
                                /*pipelined=*/true, /*with_appends=*/false));
  results.push_back(RunScenario("unpipelined", rows, clients, secs,
                                /*pipelined=*/false, /*with_appends=*/false));
  results.push_back(RunScenario("pipelined_with_appends", rows, clients, secs,
                                /*pipelined=*/true, /*with_appends=*/true));

  std::printf("%-24s %9s %10s %10s %10s %10s %7s %6s\n", "scenario",
              "requests", "qps", "p50 us", "p99 us", "p99.9 us", "avggrp",
              "appends");
  uint64_t total_errors = 0;
  std::string rows_json;
  for (const ScenarioResult& r : results) {
    total_errors += r.errors;
    // Statements per executed group: batch-executed bursts, plus
    // statements executed alone as groups of one.
    const uint64_t groups = r.batch_groups + r.singles;
    const double avg_group =
        groups > 0 ? static_cast<double>(r.batch_statements + r.singles) /
                         static_cast<double>(groups)
                   : 1.0;
    std::printf("%-24s %9llu %10.0f %10.0f %10.0f %10.0f %7.1f %6llu\n",
                r.name.c_str(), (unsigned long long)r.requests, r.qps,
                r.p50_us, r.p99_us, r.p999_us, avg_group,
                (unsigned long long)r.appends);
    char row[640];
    std::snprintf(
        row, sizeof(row),
        "%s    {\"name\": \"%s\", \"pages\": %llu, \"requests\": %llu, "
        "\"errors\": %llu, "
        "\"seconds\": %.3f, \"qps\": %.1f, \"p50_us\": %.1f, "
        "\"p99_us\": %.1f, \"p999_us\": %.1f, \"singles\": %llu, "
        "\"batch_groups\": %llu, "
        "\"batch_statements\": %llu, \"cache_hits\": %llu, "
        "\"appends\": %llu}",
        rows_json.empty() ? "" : ",\n", r.name.c_str(),
        (unsigned long long)r.pages, (unsigned long long)r.requests,
        (unsigned long long)r.errors, r.seconds, r.qps, r.p50_us, r.p99_us,
        r.p999_us, (unsigned long long)r.singles,
        (unsigned long long)r.batch_groups,
        (unsigned long long)r.batch_statements,
        (unsigned long long)r.cache_hits, (unsigned long long)r.appends);
    rows_json += row;
  }

  const double ratio =
      results[1].qps > 0 ? results[0].qps / results[1].qps : 0;
  const bool p99_ok = results[0].p99_us <= results[1].p99_us;
  std::printf(
      "\npipelined/unpipelined QPS: %.2fx, page p99 %s (%.0f us vs "
      "%.0f us)%s\n",
      ratio, p99_ok ? "better" : "worse", results[0].p99_us,
      results[1].p99_us, total_errors == 0 ? "" : "  [HTTP ERRORS!]");

  char head[256];
  std::snprintf(head, sizeof(head),
                "{\n  \"bench\": \"serve\",\n  \"scale_rows\": %zu,\n"
                "  \"clients\": %zu,\n  \"pipelined_qps_ratio\": %.3f,\n"
                "  \"p99_equal_or_better\": %s,\n  \"errors\": %llu,\n"
                "  \"scenarios\": [\n",
                rows, clients, ratio, p99_ok ? "true" : "false",
                (unsigned long long)total_errors);
  WriteBenchJson("BENCH_serve.json",
                 std::string(head) + rows_json + "\n  ]\n}");
  return total_errors == 0 ? 0 : 1;
}
