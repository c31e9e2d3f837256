// aqp_serve: stand-alone AQP HTTP server on top of serve/ServingDb.
//
// Builds a Db from a generator dataset or a CSV file and serves it:
//
//   aqp_serve                             # power dataset, 200k rows, :8080
//   aqp_serve --gen flights --rows 500000 --port 9000
//   aqp_serve --csv data.csv --port 0    # 0 = kernel-assigned (printed)
//   aqp_serve --segment-rows 50000
//
// Durable serving (crash-safe appends):
//
//   aqp_serve --dir /var/lib/aqp         # recover if state exists,
//                                        # else create fresh durable state
//   aqp_serve --dir d --fsync interval --checkpoint-ms 5000
//
// Overload / deadline knobs:
//
//   aqp_serve --max-inflight 64 --max-inflight-appends 4 --deadline-ms 500
//   aqp_serve --idle-ms 10000            # reap idle keep-alive peers
//
// Endpoints (JSON; see src/serve/service.h):
//   POST /query   {"sql":"SELECT AVG(x) FROM t WHERE y > 1;"}
//   POST /batch   {"sqls":["...", "..."]}
//   POST /append  CSV body with header row (sealed as fresh segments)
//   GET  /stats   serving counters (epoch, WAL, shedding, cache, ...)
//   GET  /healthz lifecycle + integrity (200 ok / 503 starting|draining)
//
// Prints "serving on port <P>" once ready (the CI smoke test greps it),
// then blocks until SIGINT/SIGTERM or EOF on stdin. SIGTERM/SIGINT drain
// gracefully: stop accepting, finish in-flight requests, take a final
// checkpoint (durable mode), then exit.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>

#include "api/db.h"
#include "serve/http_server.h"
#include "serve/service.h"
#include "serve/serving_db.h"
#include "storage/wal.h"

using namespace pairwisehist;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::string gen = "power";
  std::string csv;
  size_t rows = 200000;
  size_t segment_rows = 0;
  long port = 8080;
  uint64_t seed = 42;
  ServingOptions serving_options;
  ServiceLimits limits;
  HttpServerOptions server_options;
  bool has_limits = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--gen") {
      gen = next();
    } else if (arg == "--csv") {
      csv = next();
    } else if (arg == "--rows") {
      rows = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--segment-rows") {
      segment_rows = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--port") {
      port = std::strtol(next(), nullptr, 10);
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--dir") {
      serving_options.durability.dir = next();
    } else if (arg == "--fsync") {
      auto policy = ParseFsyncPolicy(next());
      if (!policy.ok()) {
        std::fprintf(stderr, "--fsync wants always|interval|never\n");
        return 2;
      }
      serving_options.durability.fsync = policy.value();
    } else if (arg == "--checkpoint-ms") {
      serving_options.durability.checkpoint_interval_ms =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--max-inflight") {
      limits.max_inflight =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
      has_limits = true;
    } else if (arg == "--max-inflight-appends") {
      limits.max_inflight_appends =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
      has_limits = true;
    } else if (arg == "--deadline-ms") {
      limits.default_deadline_ms =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
      has_limits = true;
    } else if (arg == "--idle-ms") {
      server_options.idle_timeout_ms =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else {
      std::fprintf(
          stderr,
          "usage: aqp_serve [--gen name | --csv path] [--rows N]\n"
          "                 [--segment-rows N] [--port P] [--seed S]\n"
          "                 [--dir path] [--fsync always|interval|never]\n"
          "                 [--checkpoint-ms MS]\n"
          "                 [--max-inflight N] [--max-inflight-appends N]\n"
          "                 [--deadline-ms MS] [--idle-ms MS]\n");
      return 2;
    }
  }
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "bad port %ld\n", port);
    return 2;
  }

  // Durable mode: recover existing state when the directory has a
  // checkpoint, otherwise create fresh durable state from the dataset.
  // One DbOptions for every path: a recovered server re-seals its WAL
  // batches in the same --segment-rows chunks as the live one did.
  DbOptions options;
  options.target_segment_rows = segment_rows;
  std::unique_ptr<ServingDb> serving;
  if (!serving_options.durability.dir.empty()) {
    if (serving_options.durability.checkpoint_interval_ms == 0) {
      serving_options.durability.checkpoint_interval_ms = 30000;
    }
    auto recovered = ServingDb::Recover(serving_options, options);
    if (recovered.ok()) {
      serving = std::move(recovered).value();
      const RecoveryInfo& info = serving->recovery_info();
      std::printf(
          "recovered '%s': checkpoint epoch %llu, %llu WAL records "
          "(%llu rows)%s -> epoch %llu\n",
          serving_options.durability.dir.c_str(),
          (unsigned long long)info.checkpoint_epoch,
          (unsigned long long)info.wal_records_applied,
          (unsigned long long)info.rows_recovered,
          info.tail_truncated ? ", torn tail truncated" : "",
          (unsigned long long)serving->Stats().epoch);
    } else if (recovered.status().code() == StatusCode::kNotFound) {
      auto opened = csv.empty() ? Db::FromGenerator(gen, rows, seed, options)
                                : Db::FromCsv(csv, options);
      if (!opened.ok()) {
        std::fprintf(stderr, "cannot open dataset: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      auto created =
          ServingDb::CreateDurable(std::move(opened).value(), serving_options);
      if (!created.ok()) {
        std::fprintf(stderr, "cannot create durable state: %s\n",
                     created.status().ToString().c_str());
        return 1;
      }
      serving = std::move(created).value();
      std::printf("created durable state in '%s' (fsync=%s)\n",
                  serving_options.durability.dir.c_str(),
                  FsyncPolicyName(serving_options.durability.fsync));
    } else {
      std::fprintf(stderr, "recovery failed: %s\n",
                   recovered.status().ToString().c_str());
      return 1;
    }
  } else {
    auto opened = csv.empty() ? Db::FromGenerator(gen, rows, seed, options)
                              : Db::FromCsv(csv, options);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open dataset: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded '%s': %llu rows, %zu segments, %zu synopsis bytes\n",
                opened->name().c_str(),
                (unsigned long long)opened->total_rows(),
                opened->num_segments(), opened->StorageBytes());
    serving =
        std::make_unique<ServingDb>(std::move(opened).value(), serving_options);
  }

  std::unique_ptr<ServiceGate> gate;
  if (has_limits) gate = std::make_unique<ServiceGate>(limits);
  ServiceState state;
  HttpServer server(MakeServingHandler(serving.get(), gate.get(), &state),
                    MakeServingBatchHandler(serving.get(), gate.get(), &state),
                    server_options);
  state.Set(ServiceState::Phase::kOk);
  Status st = server.Start(static_cast<uint16_t>(port));
  if (!st.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("serving on port %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  // Park until a signal or stdin EOF (whichever the supervisor uses).
  while (!g_stop) {
    const int c = std::getchar();
    if (c == EOF) {
      if (g_stop) break;
      // Detached stdin (e.g. backgrounded under CI): fall back to a nap so
      // the loop doesn't spin; signals still break us out.
      struct timespec ts = {0, 200 * 1000 * 1000};
      nanosleep(&ts, nullptr);
      std::clearerr(stdin);
    }
    if (c == 'q') break;
  }

  // Graceful shutdown: flip /healthz to 503 so load balancers route
  // away, finish in-flight requests, then (durable mode) take a final
  // checkpoint so restart needs no WAL replay.
  state.Set(ServiceState::Phase::kDraining);
  server.Drain(/*grace_ms=*/5000);
  if (serving->durable()) {
    Status cp = serving->Checkpoint();
    if (!cp.ok()) {
      std::fprintf(stderr, "final checkpoint failed: %s\n",
                   cp.ToString().c_str());
    }
  }
  const ServingStats stats = serving->Stats();
  std::printf(
      "stopped after %llu queries, %llu appends (epoch %llu)%s\n",
      (unsigned long long)stats.queries, (unsigned long long)stats.appends,
      (unsigned long long)stats.epoch,
      serving->durable() ? ", state checkpointed" : "");
  if (gate != nullptr) {
    const ServiceGate::Stats gs = gate->stats();
    std::printf("gate: %llu admitted, %llu shed reads, %llu shed appends, "
                "%llu timeouts\n",
                (unsigned long long)gs.admitted,
                (unsigned long long)gs.shed_reads,
                (unsigned long long)gs.shed_appends,
                (unsigned long long)gs.timeouts);
  }
  return 0;
}
