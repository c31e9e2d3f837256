// The traced run's layer probe and per-layer metric emission, plus the
// durable append stream shared by the ingest workload and the probe.
#include <algorithm>
#include <filesystem>
#include <optional>

#include "gd/greedy_gd.h"
#include "query/sql_parser.h"
#include "serve/http_server.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {

using pairwisehist::DbOptions;
using pairwisehist::ServingDb;
using pairwisehist::ServingOptions;
using pairwisehist::ServingStats;

namespace {

/// Size of the newest checkpoint file in a durable serving directory.
uint64_t NewestCheckpointBytes(const std::string& dir) {
  std::string newest;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".pws3") == 0 &&
        name > newest) {
      newest = name;
    }
  }
  return newest.empty() ? 0 : FileBytes(dir + "/" + newest);
}

/// Mean seconds per call of `fn` over `reps` calls.
template <typename F>
double MeanSeconds(size_t reps, F&& fn) {
  const double t0 = NowS();
  for (size_t i = 0; i < reps; ++i) fn(i);
  return reps == 0 ? 0.0 : (NowS() - t0) / static_cast<double>(reps);
}

/// Counts one probed call and reports it when it failed. Returns whether
/// it succeeded.
bool Probed(const Status& st, const char* what, Report* report) {
  ++report->attempted;
  if (st.ok()) return true;
  report->Fail(std::string("probe: ") + what + ": " + st.ToString());
  return false;
}

}  // namespace

ServingOptions DurableServingOptions(const std::string& dir,
                                     size_t batch_rows) {
  ServingOptions so;
  so.durability.dir = dir;
  so.durability.fsync = pairwisehist::WalOptions::Fsync::kAlways;
  so.compaction.enabled = true;
  // Tier 0 holds single batches, so every merge moves rows up a tier
  // (with the 8192-row default, merged runs of small batches stay in
  // tier 0 and are rewritten again every few appends).
  so.compaction.tier0_rows = 2 * batch_rows;
  // Bounds the largest merge (and so the longest stall behind it) to a
  // few tiers above a batch.
  so.compaction.max_output_rows = 16 * batch_rows;
  // No error-driven bin-budget boost: the boost depends on the reader's
  // timing, and the run's synopsis (hence its accuracy) must be a pure
  // function of its inputs.
  so.compaction.error_boost_max = 1.0;
  // Compactions publish without a checkpoint of their own; the explicit
  // checkpoint at the end of the stream makes the compacted state durable.
  so.compaction.checkpoint_after = false;
  return so;
}

DurableAppends RunDurableAppends(ServingDb* serving,
                                 const std::vector<Table>& batches, size_t n,
                                 double interval, const std::string& dir,
                                 Report* report) {
  DurableAppends out;
  uint64_t checkpoints = serving->Stats().checkpoints;
  bool appended = false;
  auto append = [&](size_t i) -> std::string {
    const Table& batch = batches[i % batches.size()];
    Status st;
    {
      Span span("serve.ServingDb::Append");
      st = serving->Append(batch);
    }
    appended = st.ok();
    if (!appended) return "ServingDb::Append: " + st.ToString();
    out.rows_acked += batch.NumRows();
    out.bytes_appended += batch.RawSizeBytes();
    return "";
  };
  // Compaction runs once the append's end is stamped: it delays the next
  // append (generator lag) but is not this append's latency.
  auto compact = [&](size_t) {
    if (!appended) return;
    for (int step = 0; step < 16; ++step) {
      bool did = false;
      Status st;
      {
        Span span("serve.ServingDb::CompactNow");
        st = serving->CompactNow(&did);
      }
      if (!st.ok()) {
        report->Fail("ServingDb::CompactNow: " + st.ToString());
        break;
      }
      if (!did) break;
      ++out.compactions;
    }
    const uint64_t now_checkpoints = serving->Stats().checkpoints;
    if (now_checkpoints > checkpoints) {
      out.checkpoint_bytes +=
          (now_checkpoints - checkpoints) * NewestCheckpointBytes(dir);
      checkpoints = now_checkpoints;
    }
  };
  out.samples = RunOpenLoop(n, interval, append, report, compact);
  return out;
}

void FillStorageCounters(const ServingDb& serving,
                         const DurableAppends& appends, LayerCounters* c) {
  const ServingStats s = serving.Stats();
  c->wal_bytes = s.wal_bytes;
  c->wal_fsyncs = s.wal_fsyncs;
  c->compactions = appends.compactions;
  c->compaction_rows_rewritten = s.compaction_rows_rewritten;
  c->write_amp = appends.bytes_appended == 0
                     ? 0.0
                     : static_cast<double>(s.wal_bytes +
                                           appends.checkpoint_bytes +
                                           s.compaction_bytes_rewritten) /
                           static_cast<double>(appends.bytes_appended);
  double lag = 0;
  for (const auto& smp : appends.samples) lag += smp.Lag();
  c->append_wait_ms = appends.samples.empty()
                          ? 0.0
                          : 1e3 * lag / static_cast<double>(
                                            appends.samples.size());
}

void FillServeCounters(const ServingStats& before, const ServingStats& after,
                       LayerCounters* c) {
  const uint64_t hits = after.cache_hits - before.cache_hits;
  const uint64_t lookups = hits + after.cache_misses - before.cache_misses;
  c->plan_cache_hit_ratio =
      lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  // Statements per executed group, over both grouping paths: batches
  // (pipelined bursts run as one QueryBatch on their connection thread)
  // and cross-connection coalescer groups. Single queries the coalescer
  // did not group count as groups of one. No workload keeps two
  // connections in flight at once, so coalescer groups stay at zero.
  const uint64_t queries = after.queries - before.queries;
  const uint64_t coalesced =
      after.coalesced_statements - before.coalesced_statements;
  const uint64_t statements =
      queries + after.batch_statements - before.batch_statements;
  const uint64_t singles = queries > coalesced ? queries - coalesced : 0;
  const uint64_t groups = after.batches - before.batches +
                          after.coalesced_groups - before.coalesced_groups +
                          singles;
  c->statements_per_group =
      groups == 0 ? 0.0
                  : static_cast<double>(statements) /
                        static_cast<double>(groups);
}

Status RunLayerProbe(const ProbeInput& in, LayerCounters* c, Report* report) {
  Tracer::Enable(true);
  Span root("probe");
  DbOptions o;
  o.open_mode = pairwisehist::OpenMode::kMmap;
  o.scrub = false;
  o.exec_threads = in.exec_threads;
  o.build_threads = 1;
  // core + api persistence: reopen (mmap), verify, save again.
  constexpr size_t kReopens = 5;
  std::optional<Db> opened;
  c->open_ms = 1e3 * MeanSeconds(kReopens, [&](size_t) {
    opened.reset();
    Span s("api.Db::Open");
    auto d = Db::Open(in.saved_path, o);
    if (Probed(d.status(), "Db::Open", report)) opened = std::move(d).value();
  });
  if (!opened.has_value()) return Status::Internal("probe: reopen failed");
  Db& db = opened.value();
  c->verify_ms = 1e3 * MeanSeconds(kReopens, [&](size_t) {
    Span s("core.VerifyIntegrity");
    Probed(db.VerifyIntegrity(), "VerifyIntegrity", report);
  });
  const std::string resaved = in.work_dir + "/probe-resave.pws3";
  c->save_ms = 1e3 * MeanSeconds(kReopens, [&](size_t) {
    Span s("api.Db::Save");
    Probed(db.Save(resaved), "Db::Save", report);
  });
  RemoveTree(resaved);
  c->segments = db.num_segments();
  c->pws3_bytes = FileBytes(in.saved_path);
  const std::vector<Statement>& pool = *in.pool;
  const size_t n = pool.size();
  constexpr size_t kPasses = 3;

  // query layer: parse, compile, one-segment engine, cross-segment fan-out.
  c->parse_us = 1e6 * MeanSeconds(n * kPasses, [&](size_t i) {
    Span s("query.ParseSql");
    Probed(pairwisehist::ParseSql(pool[i % n].sql).status(), "ParseSql",
           report);
  });
  std::vector<pairwisehist::SegmentedPlan> plans(n);
  size_t unprepared = 0;
  c->compile_us = 1e6 * MeanSeconds(n, [&](size_t i) {
    Span s("query.SegmentedExecutor::Prepare");
    auto p = db.executor().Prepare(pool[i].query);
    if (Probed(p.status(), "SegmentedExecutor::Prepare", report)) {
      plans[i] = std::move(p).value();
    } else {
      ++unprepared;
    }
  });
  if (unprepared > 0) {
    return Status::Internal("probe: a statement did not compile");
  }
  // Pruning needs several segments with disjoint ranges: only the
  // ingest synopsis has them; one-segment synopses read 0.
  size_t planned = 0, pruned = 0;
  for (const auto& p : plans) {
    planned += p.PlannedSegments();
    pruned += p.PrunedSegments();
  }
  c->segments_pruned_ratio =
      planned == 0 ? 0.0 : static_cast<double>(pruned) / planned;
  std::vector<pairwisehist::CompiledQuery> compiled(n);
  for (size_t i = 0; i < n; ++i) {
    PH_ASSIGN_OR_RETURN(compiled[i], db.engine().Compile(pool[i].query));
  }
  QueryResult r;
  c->engine_exec_us = 1e6 * MeanSeconds(n * kPasses, [&](size_t i) {
    Span s("query.AqpEngine::ExecuteInto");
    Probed(db.engine().ExecuteInto(compiled[i % n], &r),
           "AqpEngine::ExecuteInto", report);
  });
  c->fanout_exec_us = 1e6 * MeanSeconds(n * kPasses, [&](size_t i) {
    Span s("query.SegmentedExecutor::ExecuteInto");
    Probed(db.executor().ExecuteInto(plans[i % n], &r),
           "SegmentedExecutor::ExecuteInto", report);
  });

  // api layer: prepare, execute, batch execution of 8-statement pages,
  // and the copy-on-append snapshot.
  std::vector<pairwisehist::PreparedQuery> pqs(n);
  c->prepare_us = 1e6 * MeanSeconds(n, [&](size_t i) {
    Span s("api.Db::Prepare");
    auto pq = db.Prepare(pool[i].sql);
    if (Probed(pq.status(), "Db::Prepare", report)) {
      pqs[i] = std::move(pq).value();
    } else {
      ++unprepared;
    }
  });
  if (unprepared > 0) {
    return Status::Internal("probe: a statement did not prepare");
  }
  c->execute_us = 1e6 * MeanSeconds(n * kPasses, [&](size_t i) {
    Span s("api.PreparedQuery::ExecuteInto");
    Probed(pqs[i % n].ExecuteInto(&r), "PreparedQuery::ExecuteInto", report);
  });
  constexpr size_t kPage = 8;
  std::vector<QueryResult> page_results;
  const size_t pages = n / kPage;
  if (pages > 0) {
    c->execute_batch_us_per_stmt =
        1e6 / kPage * MeanSeconds(pages * kPasses, [&](size_t i) {
          Span s("api.Db::ExecuteBatch");
          Probed(db.ExecuteBatch(&pqs[(i % pages) * kPage], kPage,
                                 &page_results),
                 "Db::ExecuteBatch", report);
        });
  }
  const std::vector<Table>& batches = *in.batches;
  c->with_appended_ms = 1e3 * MeanSeconds(batches.size(), [&](size_t i) {
    Span s("api.Db::WithAppended");
    Probed(db.WithAppended(batches[i]).status(), "Db::WithAppended", report);
  });

  // gd layer: GreedyGD compression of the workload's table.
  {
    const double t0 = NowS();
    Span s("gd.CompressTable");
    auto compressed = pairwisehist::CompressTable(*in.table);
    if (!compressed.ok()) return compressed.status();
    c->compress_s = NowS() - t0;
  }

  // serve layer: the same statements through ServingDb::Query in process
  // and as single HTTP round trips, with warm plan caches, on an
  // in-memory ServingDb over the probe's synopsis.
  PH_ASSIGN_OR_RETURN(Db serving_db, Db::Open(in.saved_path, o));
  ServingDb own(std::move(serving_db));
  ServingDb* serving = &own;
  pairwisehist::HttpServer server(
      pairwisehist::MakeServingHandler(serving),
      pairwisehist::MakeServingBatchHandler(serving));
  PH_RETURN_IF_ERROR(server.Start(0));
  PipelinedClient client;
  PH_RETURN_IF_ERROR(client.Connect(server.port()));
  std::vector<PipelinedClient::Response> resp;
  for (size_t pass = 0; pass <= kPasses; ++pass) {
    Tracer::Enable(pass > 0);
    double http = 0, inproc = 0;
    for (size_t i = 0; i < n; ++i) {
      const double t0 = NowS();
      {
        Span s("serve.http_query");
        PH_RETURN_IF_ERROR(client.Page("/query", {QueryBody(pool[i].sql)}, &resp));
      }
      const double t1 = NowS();
      {
        Span s("serve.ServingDb::Query");
        PH_RETURN_IF_ERROR(serving->Query(pool[i].sql, &r));
      }
      const double t2 = NowS();
      if (resp[0].status != 200) {
        return Status::Internal("probe: HTTP /query answered " +
                                std::to_string(resp[0].status));
      }
      http += t1 - t0;
      inproc += t2 - t1;
    }
    if (pass > 0) {
      c->http_us += 1e6 * http / static_cast<double>(n * kPasses);
      c->servingdb_query_us += 1e6 * inproc / static_cast<double>(n * kPasses);
    }
  }
  client.Close();
  server.Stop();
  Tracer::Enable(true);
  if (!in.workload_serves) FillServeCounters(ServingStats{}, own.Stats(), c);

  // storage layer: a short durable append stream over a copy of the
  // synopsis, for workloads that do not run one themselves.
  if (!in.durable_done) {
    const std::string dir = in.work_dir + "/probe-durable";
    RemoveTree(dir);
    PH_ASSIGN_OR_RETURN(Db copy, Db::Open(in.saved_path, o));
    PH_ASSIGN_OR_RETURN(
        std::unique_ptr<ServingDb> durable,
        ServingDb::CreateDurable(
            std::move(copy),
            DurableServingOptions(dir, batches.front().NumRows())));
    // 32 appends, one every 40 ms as on `ingest`: two tier-0 merge
    // cascades.
    const DurableAppends appends =
        RunDurableAppends(durable.get(), batches, 32, 0.040, dir, report);
    {
      Span s("serve.ServingDb::Checkpoint");
      PH_RETURN_IF_ERROR(durable->Checkpoint());
    }
    FillStorageCounters(*durable, appends, c);
    durable.reset();
    RemoveTree(dir);
  }
  Tracer::Enable(false);
  return Status::OK();
}

void EmitLayerMetrics(const LayerCounters& c, Report* report) {
  const auto summary = Tracer::Summarize();
  auto mean_self = [&](const char* name, double ns_per_unit) {
    auto it = summary.find(name);
    if (it == summary.end() || it->second.count == 0) return 0.0;
    return static_cast<double>(it->second.self_ns) / ns_per_unit /
           static_cast<double>(it->second.count);
  };
  auto total_self = [&](const char* name, double ns_per_unit) {
    auto it = summary.find(name);
    return it == summary.end()
               ? 0.0
               : static_cast<double>(it->second.self_ns) / ns_per_unit;
  };
  report->Layer("serve.http_us", c.http_us, "us");
  report->Layer("serve.servingdb_query_us", c.servingdb_query_us, "us");
  report->Layer("serve.http_json_us", c.http_us - c.servingdb_query_us, "us");
  report->Layer("serve.plan_cache_hit_ratio", c.plan_cache_hit_ratio,
                "ratio");
  report->Layer("serve.statements_per_group", c.statements_per_group,
                "count");
  report->Layer("serve.append_ms", mean_self("serve.ServingDb::Append", 1e6),
                "ms");
  report->Layer("serve.append_wait_ms", c.append_wait_ms, "ms");
  // Durable append streams always run with their writer thread traced,
  // so the CompactNow spans cover every compaction counted.
  report->Layer("serve.compact_ms",
                c.compactions == 0
                    ? 0.0
                    : total_self("serve.ServingDb::CompactNow", 1e6) /
                          static_cast<double>(c.compactions),
                "ms");
  report->Layer("serve.compactions", static_cast<double>(c.compactions),
                "count");
  report->Layer("serve.checkpoint_ms",
                mean_self("serve.ServingDb::Checkpoint", 1e6), "ms");
  report->Layer("api.build_s", mean_self("api.Db::FromTable", 1e9), "s");
  report->Layer("api.prepare_us", c.prepare_us, "us");
  report->Layer("api.execute_us", c.execute_us, "us");
  report->Layer("api.execute_batch_us_per_stmt", c.execute_batch_us_per_stmt,
                "us");
  report->Layer("api.with_appended_ms", c.with_appended_ms, "ms");
  report->Layer("api.save_ms", c.save_ms, "ms");
  report->Layer("api.open_ms", c.open_ms, "ms");
  report->Layer("query.parse_us", c.parse_us, "us");
  report->Layer("query.compile_us", c.compile_us, "us");
  report->Layer("query.engine_exec_us", c.engine_exec_us, "us");
  report->Layer("query.fanout_exec_us", c.fanout_exec_us, "us");
  report->Layer("query.segments_pruned_ratio", c.segments_pruned_ratio,
                "ratio");
  report->Layer("core.segments", static_cast<double>(c.segments), "count");
  report->Layer("core.pws3_bytes", static_cast<double>(c.pws3_bytes), "B");
  report->Layer("core.verify_ms", c.verify_ms, "ms");
  report->Layer("gd.compress_s", c.compress_s, "s");
  report->Layer("storage.wal_bytes", static_cast<double>(c.wal_bytes), "B");
  report->Layer("storage.wal_fsyncs", static_cast<double>(c.wal_fsyncs),
                "count");
  report->Layer("storage.write_amp", c.write_amp, "ratio");
  report->Layer("storage.compaction_rows_rewritten",
                static_cast<double>(c.compaction_rows_rewritten), "count");
  report->Layer("trace.overhead_pct", c.overhead_pct, "%");
}

}  // namespace perfbench
