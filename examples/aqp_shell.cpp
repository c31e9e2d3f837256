// Interactive AQP shell on top of the pairwisehist::Db facade: open a
// dataset (generator name or CSV path), then type SQL against the
// synopsis. One Db handle covers build, approximate + exact execution,
// prepared statements and incremental append — the full public API.
//
// Usage:
//   aqp_shell                      # flights demo dataset
//   aqp_shell power                # any of the 11 generator names
//   aqp_shell /path/to/data.csv    # your own CSV
//
// Shell commands besides SQL:
//   .schema           column names and types
//   .stats            synopsis statistics
//   .segments         per-segment ranges, sizes, compaction tier + error
//   .compact          merge eligible segment runs (tiered compaction)
//   .exact <sql>      run the same SQL exactly (ground truth)
//   .prepare <sql>    compile once, then time repeated executions
//   .batch <file>     execute one query per line as a single batch and
//                     report per-query latency + batch-vs-loop speedup
//   .append <rows>    generate + seal new rows as a fresh segment
//   .append <csv>     ingest a CSV batch as a fresh segment
//   .serve <port>     expose the open Db over HTTP (serve/ServingDb) until
//                     Enter is pressed, then reattach the shell
//   .save [pws2] <path>  write the synopsis: memory-mappable PWS3 by
//                     default, or the compact Fig.-6 PWS2 container
//   .open <path>      reopen a saved synopsis (PWS3 memory-maps in O(1);
//                     prints the open mode and mapped byte count)
//   .quit
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/db.h"
#include "datagen/datasets.h"
#include "query/batch_exec.h"
#include "serve/http_server.h"
#include "serve/service.h"
#include "serve/serving_db.h"
#include "storage/csv.h"

using namespace pairwisehist;

namespace {

void PrintResult(const QueryResult& result) {
  for (const auto& g : result.groups) {
    if (!g.label.empty()) std::printf("  %-16s", g.label.c_str());
    if (g.agg.empty_selection) {
      std::printf("  (empty selection)\n");
      continue;
    }
    std::printf("  %14.4f   bounds [%0.4f, %0.4f]\n", g.agg.estimate,
                g.agg.lower, g.agg.upper);
  }
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string source = argc > 1 ? argv[1] : "flights";

  DbOptions options;
  // Live segment lifecycle: .append seals segments, the tiered compactor
  // merges eligible runs (automatically after appends, or via .compact).
  options.compact.enabled = true;
  auto opened = source.find(".csv") != std::string::npos
                    ? Db::FromCsv(source, options)
                    : Db::FromGenerator(source, 0, 1, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open '%s': %s\n", source.c_str(),
                 opened.status().ToString().c_str());
    if (source.find(".csv") == std::string::npos) {
      std::fprintf(stderr, "known datasets: ");
      for (const auto& spec : AllDatasets()) {
        std::fprintf(stderr, "%s ", spec.name.c_str());
      }
      std::fprintf(stderr, "(or a .csv path)\n");
    }
    return 1;
  }
  Db db = std::move(opened).value();

  std::printf("loaded '%s': %zu rows x %zu columns\n", db.name().c_str(),
              db.table()->NumRows(), db.table()->NumColumns());
  std::printf("synopsis ready: %zu bytes. Type SQL or .help\n",
              db.StorageBytes());

  std::string line;
  while (std::printf("aqp> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ".quit" || line == ".exit") break;
    if (line == ".help") {
      std::printf(
          "SQL:  SELECT <agg>(col|*) FROM t [WHERE ...] [GROUP BY col];\n"
          "      aggs: COUNT SUM AVG MIN MAX MEDIAN VAR\n"
          ".schema          column names and types\n"
          ".stats           synopsis statistics\n"
          ".segments        per-segment ranges, sizes, tier + error stats\n"
          ".compact         merge eligible segment runs (tiered "
          "compaction)\n"
          ".exact <sql>     run the same SQL exactly (ground truth)\n"
          ".prepare <sql>   compile once, time 1000 re-executions\n"
          ".batch <file>    run one query per line as a single batch\n"
          ".append <rows>   generate+seal new rows as a fresh segment\n"
          ".append <csv>    ingest a CSV batch as a fresh segment\n"
          ".serve <port>    expose this Db over HTTP until Enter (0 = any)\n"
          ".save [pws2] <path>  write the synopsis (default: mappable "
          "PWS3; 'pws2' = compact Fig.-6)\n"
          ".open <path>     reopen a saved synopsis (PWS3 mmaps in O(1); "
          "prints mode + mapped bytes)\n"
          ".quit\n");
      continue;
    }
    if (line == ".schema") {
      // A synopsis reopened with .open carries no raw table; report the
      // append schema (names + types) recovered from the synopsis.
      if (db.table() != nullptr) {
        std::printf("%s\n", db.table()->SchemaString().c_str());
      } else {
        for (const auto& [name, type] : db.AppendSchema()) {
          std::printf("  %-16s %s\n", name.c_str(), DataTypeName(type));
        }
      }
      continue;
    }
    if (line == ".stats") {
      const PairwiseHist& s = db.synopsis();
      std::printf("rows N=%llu (%zu segments)  columns=%zu  pairs=%zu  "
                  "bytes=%zu\n",
                  (unsigned long long)db.total_rows(), db.num_segments(),
                  s.num_columns(), s.num_pairs(), db.StorageBytes());
      std::printf("segment 0: Ns=%llu  rho=%.4f  M=%llu\n",
                  (unsigned long long)s.sample_rows(), s.sampling_ratio(),
                  (unsigned long long)s.min_points());
      continue;
    }
    if (line == ".segments") {
      // tier/err columns come from the segment lifecycle: the size tier
      // the compactor bins the segment into, and its mean observed
      // relative CI width from the feedback ledger ("-" = no feedback).
      const CompactionOptions& copts = db.compaction_options();
      std::printf("%4s %12s %12s %12s %10s %8s %5s %9s\n", "seg",
                  "rows [begin", "end)", "synopsis B", "Ns", "rho", "tier",
                  "err");
      for (size_t i = 0; i < db.num_segments(); ++i) {
        const SegmentMeta& m = db.segment_meta(i);
        const PairwiseHist& s = db.synopsis(i);
        const uint32_t tier =
            CompactionTier(m.row_end - m.row_begin, copts);
        char err[16] = "-";
        if (db.feedback_ledger() != nullptr) {
          FeedbackLedger::Entry e = db.feedback_ledger()->Get(m.row_begin);
          if (e.samples > 0) {
            std::snprintf(err, sizeof(err), "%.4f", e.mean_rel_width);
          }
        }
        std::printf("%4zu %12llu %12llu %12zu %10llu %8.4f %5u %9s\n", i,
                    (unsigned long long)m.row_begin,
                    (unsigned long long)m.row_end, s.StorageBytes(),
                    (unsigned long long)s.sample_rows(), s.sampling_ratio(),
                    tier, err);
      }
      std::printf("backlog: %zu segment(s) in eligible merge runs\n",
                  db.CompactionBacklogSize());
      continue;
    }
    if (line == ".compact") {
      const size_t before = db.num_segments();
      auto applied = db.Compact();
      if (!applied.ok()) {
        std::printf("error: %s\n", applied.status().ToString().c_str());
      } else if (applied.value() == 0) {
        std::printf("nothing eligible (enable compaction or seal more "
                    "segments; %zu segments)\n",
                    before);
      } else {
        std::printf("compacted: %zu merge step(s), %zu -> %zu segments, "
                    "%zu bytes\n",
                    applied.value(), before, db.num_segments(),
                    db.StorageBytes());
      }
      continue;
    }
    if (line.rfind(".exact ", 0) == 0) {
      auto result = db.ExecuteExactSql(line.substr(7));
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
      } else {
        PrintResult(result.value());
      }
      continue;
    }
    if (line.rfind(".prepare ", 0) == 0) {
      auto prepared = db.Prepare(line.substr(9));
      if (!prepared.ok()) {
        std::printf("error: %s\n", prepared.status().ToString().c_str());
        continue;
      }
      auto first = prepared->Execute();
      if (!first.ok()) {
        std::printf("error: %s\n", first.status().ToString().c_str());
        continue;
      }
      PrintResult(first.value());
      const int reps = 1000;
      double t0 = NowUs();
      for (int i = 0; i < reps; ++i) {
        auto r = prepared->Execute();
        (void)r;
      }
      std::printf("  prepared: %.1f us/execution over %d runs\n",
                  (NowUs() - t0) / reps, reps);
      continue;
    }
    if (line.rfind(".batch ", 0) == 0) {
      std::string path = line.substr(7);
      std::ifstream in(path);
      if (!in) {
        std::printf("error: cannot open '%s'\n", path.c_str());
        continue;
      }
      std::vector<std::string> sqls;
      std::string sql;
      while (std::getline(in, sql)) {
        // One query per line; blank lines and # comments are skipped.
        size_t first = sql.find_first_not_of(" \t\r");
        if (first == std::string::npos || sql[first] == '#') continue;
        sqls.push_back(sql.substr(first));
      }
      if (sqls.empty()) {
        std::printf("no queries in '%s'\n", path.c_str());
        continue;
      }
      auto batch = db.PrepareBatch(sqls);
      if (!batch.ok()) {
        std::printf("error: %s\n", batch.status().ToString().c_str());
        continue;
      }
      std::vector<QueryResult> results;
      Status st = batch->ExecuteInto(&results);
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        continue;
      }
      for (size_t i = 0; i < results.size(); ++i) {
        std::printf("[%2zu] %s\n", i, sqls[i].c_str());
        PrintResult(results[i]);
      }
      // Batch vs loop timing over the same prepared statements.
      std::vector<PreparedQuery> prepared;
      bool all_prepared = true;
      for (const std::string& s : sqls) {
        auto pq = db.Prepare(s);
        if (!pq.ok()) {
          all_prepared = false;
          break;
        }
        prepared.push_back(std::move(pq).value());
      }
      const int reps = 200;
      bool timing_ok = true;
      double t0 = NowUs();
      for (int r = 0; r < reps; ++r) {
        timing_ok = batch->ExecuteInto(&results).ok() && timing_ok;
      }
      double batch_us = (NowUs() - t0) / reps;
      double loop_us = 0;
      if (all_prepared) {
        std::vector<QueryResult> loop_results(prepared.size());
        t0 = NowUs();
        for (int r = 0; r < reps; ++r) {
          for (size_t i = 0; i < prepared.size(); ++i) {
            timing_ok =
                prepared[i].ExecuteInto(&loop_results[i]).ok() && timing_ok;
          }
        }
        loop_us = (NowUs() - t0) / reps;
      }
      if (!timing_ok) {
        std::printf("  timing invalid: executions failed mid-loop\n");
        continue;
      }
      std::printf(
          "  %zu queries (%zu distinct plans): %.2f us/query batched",
          batch->size(), batch->NumDistinctPlans(),
          batch_us / static_cast<double>(batch->size()));
      if (loop_us > 0) {
        std::printf(", %.2f us/query looped  (%.2fx speedup)\n",
                    loop_us / static_cast<double>(batch->size()),
                    loop_us / batch_us);
      } else {
        std::printf("\n");
      }
      continue;
    }
    if (line.rfind(".append ", 0) == 0) {
      std::string arg = line.substr(8);
      if (arg.size() > 4 && arg.rfind(".csv") == arg.size() - 4) {
        // Ingest a CSV batch: sealed as a fresh segment (fresh bin edges).
        auto batch = ReadCsv(arg);
        if (!batch.ok()) {
          std::printf("error: %s\n", batch.status().ToString().c_str());
          continue;
        }
        Status st = db.Append(batch.value());
        if (!st.ok()) {
          std::printf("error: %s\n", st.ToString().c_str());
        } else {
          std::printf("sealed %zu rows from %s; N=%llu, %zu segments, "
                      "%zu bytes\n",
                      batch->NumRows(), arg.c_str(),
                      (unsigned long long)db.total_rows(),
                      db.num_segments(), db.StorageBytes());
        }
        continue;
      }
      size_t rows = std::strtoull(arg.c_str(), nullptr, 10);
      if (rows == 0 || rows > 1000000) {
        std::printf("usage: .append <1..1000000 | path.csv>\n");
        continue;
      }
      auto fresh = MakeDataset(source, rows, db.total_rows() + 1);
      if (!fresh.ok()) {
        std::printf(".append <rows> only works for generated datasets; "
                    "pass a .csv path instead\n");
        continue;
      }
      Status st = db.Append(*fresh);
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
      } else {
        std::printf("sealed %zu rows; N=%llu, %zu segments, %zu bytes\n",
                    rows, (unsigned long long)db.total_rows(),
                    db.num_segments(), db.StorageBytes());
      }
      continue;
    }
    if (line.rfind(".serve", 0) == 0) {
      const uint16_t port = static_cast<uint16_t>(
          line.size() > 7 ? std::strtoul(line.c_str() + 7, nullptr, 10) : 0);
      // Hand the Db to a ServingDb (snapshot epoch 0), serve until Enter,
      // then take it back — appends made over HTTP are kept. The shell's
      // segment lifecycle carries over: the background compactor merges
      // eligible runs between HTTP appends instead of letting the backlog
      // accumulate until the shell reattaches.
      ServingOptions serving_options;
      serving_options.compaction = db.compaction_options();
      serving_options.compaction.interval_ms = 250;
      ServingDb serving(std::move(db), serving_options);
      HttpServer server(MakeServingHandler(&serving),
                    MakeServingBatchHandler(&serving));
      Status st = server.Start(port);
      if (st.ok()) {
        std::printf("serving on http://127.0.0.1:%u  "
                    "(POST /query /batch /append, GET /stats)\n"
                    "press Enter to stop\n",
                    static_cast<unsigned>(server.port()));
        std::string ignored;
        std::getline(std::cin, ignored);
        server.Drain();
        const ServingStats stats = serving.Stats();
        std::printf(
            "served %llu queries, %llu appends (epoch %llu); "
            "%llu cache hits, %llu batched statements; "
            "%llu idle reaps, %llu malformed closes\n",
            (unsigned long long)stats.queries,
            (unsigned long long)stats.appends,
            (unsigned long long)stats.epoch,
            (unsigned long long)stats.cache_hits,
            (unsigned long long)stats.batch_statements,
            (unsigned long long)server.idle_reaped(),
            (unsigned long long)server.malformed_closed());
      } else {
        std::printf("error: %s\n", st.ToString().c_str());
      }
      auto back = serving.TakeDb();
      if (!back.ok()) {
        std::fprintf(stderr, "cannot reattach Db: %s\n",
                     back.status().ToString().c_str());
        return 1;
      }
      db = std::move(back).value();
      std::printf("server stopped; shell reattached (%zu segments)\n",
                  db.num_segments());
      continue;
    }
    if (line.rfind(".save ", 0) == 0) {
      // Default: the memory-mappable PWS3 format (O(1) reopen via .open);
      // ".save pws2 <path>" writes the compact Fig.-6 container instead.
      std::string arg = line.substr(6);
      SaveFormat format = SaveFormat::kPws3;
      if (arg.rfind("pws2 ", 0) == 0) {
        format = SaveFormat::kPws2;
        arg = arg.substr(5);
      }
      Status st = db.Save(arg, format);
      std::printf("%s\n", st.ok() ? (format == SaveFormat::kPws3
                                         ? "saved (pws3, mappable)"
                                         : "saved (pws2, compact)")
                                  : st.ToString().c_str());
      continue;
    }
    if (line.rfind(".open ", 0) == 0) {
      const double t0 = NowUs();
      auto reopened = Db::Open(line.substr(6));
      if (!reopened.ok()) {
        std::printf("error: %s\n", reopened.status().ToString().c_str());
        continue;
      }
      db = std::move(reopened).value();
      std::printf(
          "opened in %.0f us: %llu rows, %zu segments, mode=%s, "
          "mapped_bytes=%zu%s\n",
          NowUs() - t0, (unsigned long long)db.total_rows(),
          db.num_segments(), db.mapped() ? "mmap" : "heap",
          db.mapped_bytes(),
          db.mapped() ? " (zero-copy, page-cache shared)" : "");
      continue;
    }
    auto result = db.ExecuteSql(line);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    PrintResult(result.value());
  }
  return 0;
}
