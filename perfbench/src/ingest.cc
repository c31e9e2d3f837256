// ingest: an in-process durable ServingDb (WAL fsync on every append,
// tiered compaction on) fed by an open-loop writer while one closed-loop
// reader runs multi-segment statements. The writer appends fixed-size
// batches on a schedule, timing each append from its due time, and calls
// CompactNow() until idle after every append so compaction counts repeat
// exactly. At the end the run checkpoints, drops the server, recovers it
// from disk and checks the recovered state. storage (WAL, compactor),
// core segment builds and PWS3 save / mmap open do most of the work; the
// query layer fans out across segments and re-plans at every epoch.
#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {

using pairwisehist::DbOptions;
using pairwisehist::ServingDb;

namespace {

constexpr size_t kRows = 200000;
constexpr size_t kSegmentRows = 50000;  // four initial segments
constexpr double kMinSelectivity = 1e-3;
constexpr size_t kPage = 8;
constexpr size_t kBatchRows = 200;
constexpr size_t kBatches = 16;
constexpr double kAppendInterval = 0.040;

DbOptions Options() {
  DbOptions o;
  o.keep_table = false;  // snapshots stay O(new rows) per append
  o.target_segment_rows = kSegmentRows;
  o.build_threads = 1;
  // The reader fans out across segments on its own thread: a fan-out
  // thread would wait, on every statement, for a CPU to wake or for the
  // writer's CPU to be free.
  o.exec_threads = 1;
  o.scrub = false;  // recovery verifies synchronously instead
  return o;
}

}  // namespace

Status RunIngest(const Args& args, Report* report) {
  RunConfig cfg;
  cfg.workload = "ingest";
  cfg.seed = args.seed;
  cfg.rows = kRows;
  cfg.clients = 2;  // the writer and the reader
  cfg.exec_threads = Options().exec_threads;
  cfg.build_threads = Options().build_threads;
  cfg.fsync = "always";
  PH_RETURN_IF_ERROR(cfg.Guard());
  // The reader and the writer (this thread) each get a CPU of their own.
  PH_ASSIGN_OR_RETURN(const std::vector<int> cpus, PinnableCpus(2));
  PH_RETURN_IF_ERROR(PinThisThread(cpus[1]));
  cfg.cpus = std::to_string(cpus[0]) + "," + std::to_string(cpus[1]);
  report->Note("config     " + cfg.Describe());

  // Inputs, outside every timed region; the reader's pool is drawn from
  // the seed once the set-up synopsis exists.
  PH_ASSIGN_OR_RETURN(Table table, MakeTable(kRows));
  PH_ASSIGN_OR_RETURN(std::vector<Table> batches,
                      MakeBatches(kBatches, kBatchRows));
  const std::string first_sql = FirstQuerySql(table);
  report->Phase("inputs");

  // Set-up: raw table in hand → durable server answering its first query.
  if (args.trace) Tracer::Enable(true);
  std::unique_ptr<ServingDb> serving;
  std::vector<double> setups;
  std::string dir;
  QueryResult r;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    Table copy = table.Slice(0, table.NumRows());
    serving.reset();
    if (!dir.empty()) RemoveTree(dir);
    dir = args.work_dir + "/ingest-" + std::to_string(rep);
    RemoveTree(dir);
    Span span("ingest.setup");
    const double t0 = NowS();
    StatusOr<Db> db = [&] {
      Span s("api.Db::FromTable");
      return Db::FromTable(std::move(copy), Options());
    }();
    if (!db.ok()) return db.status();
    {
      Span s("serve.ServingDb::CreateDurable");
      PH_ASSIGN_OR_RETURN(
          serving,
          ServingDb::CreateDurable(std::move(db).value(),
                                   DurableServingOptions(dir, kBatchRows)));
    }
    {
      Span s("serve.ServingDb::Query");
      PH_RETURN_IF_ERROR(serving->Query(first_sql, &r));
    }
    setups.push_back(NowS() - t0);
  }
  Tracer::Enable(false);
  report->Phase("setup");

  // The reader cycles the accuracy pool. At 1400 statements it reads each
  // at most once per 40 ms epoch, so every read misses the plan cache (an
  // append invalidates it) whatever the reader's speed. With 350
  // statements a slower stretch of the machine turned hits into misses,
  // which slowed the reader further: query_p50_us moved 2.5x between runs.
  size_t redrawn = 0;
  PH_ASSIGN_OR_RETURN(
      std::vector<Statement> pool,
      MakeStatementPool(table, args.seed, kAccuracyPerStratum,
                        kMinSelectivity,
                        ContractScreen(serving->snapshot()->db), &redrawn));
  GateContract("pool", pool.size() + redrawn, redrawn, report);
  report->Phase("pool");

  // Measured phase: the open-loop writer on this thread, the closed-loop
  // reader beside it. With --trace 1 the reader alternates untraced and
  // traced slots while the writer stays traced throughout, so every
  // append and compaction is recorded.
  const double run_secs = args.seconds * 0.8;
  const size_t appends_n = static_cast<size_t>(run_secs / kAppendInterval);
  std::atomic<bool> stop{false};
  EndToEnd e;
  double slot_time[2] = {0, 0};
  uint64_t slot_ops[2] = {0, 0};
  uint64_t reads = 0, read_failed = 0;
  std::vector<std::string> read_failures;
  const pairwisehist::ServingStats reads_before = serving->Stats();
  Tracer::Enable(args.trace);
  const double t_start = NowS();
  std::thread reader([&] {
    if (!PinThisThread(cpus[0]).ok()) {
      ++read_failed;
      read_failures.push_back("reader: could not pin to its CPU");
      return;
    }
    QueryResult res;
    double page_start = NowS();
    for (size_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      const Statement& st = pool[i % pool.size()];
      const double t0 = NowS();
      const int slot = TracedSlot(args.trace, t0, t_start);
      Tracer::EnableThisThread(slot);
      if (i % kPage == 0) page_start = t0;
      Status s;
      {
        Span span("serve.ServingDb::Query");
        s = serving->Query(st.sql, &res);
      }
      const double t1 = NowS();
      ++reads;
      std::string bad = s.ok() ? CheckAnswer(st, res) : s.ToString();
      if (!bad.empty()) {
        ++read_failed;
        if (read_failures.size() < 4) read_failures.push_back(bad);
      }
      e.query_us.push_back({t1, (t1 - t0) * 1e6});
      slot_time[slot] += t1 - t0;
      ++slot_ops[slot];
      if (i % kPage == kPage - 1) {
        e.page_us.push_back({t1, (t1 - page_start) * 1e6});
      }
    }
  });
  const DurableAppends appends = RunDurableAppends(
      serving.get(), batches, appends_n, kAppendInterval, dir, report);
  e.read_begin = t_start;
  e.read_end = NowS();
  stop.store(true, std::memory_order_release);
  reader.join();
  report->attempted += reads;
  for (uint64_t f = 0; f < read_failed; ++f) {
    report->Fail(f < read_failures.size() ? read_failures[f]
                                          : "reader statement failed");
  }
  report->Phase("run");

  LayerCounters c;
  c.overhead_pct = OverheadPct(slot_time, slot_ops);
  FillServeCounters(reads_before, serving->Stats(), &c);
  FillStorageCounters(*serving, appends, &c);

  // Pre-drop answers, then checkpoint, drop and recover.
  auto snap = serving->snapshot();
  const uint64_t rows_expected = kRows + appends.rows_acked;
  const double bytes_per_row = static_cast<double>(snap->db.StorageBytes()) /
                               static_cast<double>(rows_expected);
  const std::string probe_path = args.work_dir + "/probe.pws3";
  if (args.trace) PH_RETURN_IF_ERROR(snap->db.Save(probe_path));
  snap.reset();
  std::vector<QueryResult> before(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    PH_RETURN_IF_ERROR(serving->Query(pool[i].sql, &before[i]));
  }
  {
    Span s("serve.ServingDb::Checkpoint");
    PH_RETURN_IF_ERROR(serving->Checkpoint());
  }
  serving.reset();
  DbOptions recover_opts;
  recover_opts.exec_threads = Options().exec_threads;
  recover_opts.scrub = false;
  PH_ASSIGN_OR_RETURN(
      double recover_s, MedianOf(kRestartReps, [&]() -> StatusOr<double> {
        serving.reset();
        Span span("ingest.recover");
        const double t0 = NowS();
        StatusOr<std::unique_ptr<ServingDb>> rec = [&] {
          Span s("serve.ServingDb::Recover");
          return ServingDb::Recover(DurableServingOptions(dir, kBatchRows),
                                    recover_opts);
        }();
        if (!rec.ok()) return rec.status();
        {
          Span s("serve.ServingDb::Query");
          PH_RETURN_IF_ERROR(rec.value()->Query(first_sql, &r));
        }
        const double dt = NowS() - t0;
        serving = std::move(rec).value();
        return dt;
      }));
  ++report->attempted;
  if (serving->Stats().rows != rows_expected) {
    report->Fail("recovered " + std::to_string(serving->Stats().rows) +
                 " rows, expected " + std::to_string(rows_expected));
  }
  std::vector<QueryResult> after(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    ++report->attempted;
    Status s = serving->Query(pool[i].sql, &after[i]);
    if (!s.ok() || !BitEqual(before[i], after[i])) {
      report->Fail("recovered state answers differently: " + pool[i].sql);
    }
  }
  Tracer::Enable(false);
  report->Phase("recover");

  // Accuracy of the recovered state against every row it holds; its
  // answers are held to the answer contract too.
  Table all_rows = table.Slice(0, table.NumRows());
  for (size_t i = 0; i < appends.samples.size(); ++i) {
    PH_RETURN_IF_ERROR(
        pairwisehist::AppendTableRows(&all_rows, batches[i % batches.size()]));
  }
  PH_ASSIGN_OR_RETURN(e.accuracy,
                      AccuracyOn(serving->snapshot()->db, all_rows, pool));
  GateContract("pool on the recovered state", pool.size(),
               e.accuracy.broken, report);
  report->Phase("accuracy");

  e.setup_s = Median(setups);
  e.appends = appends.samples;
  e.recover_s = recover_s;
  e.bytes_per_row = bytes_per_row;
  EmitEndToEnd(e, report);
  report->Note("ingest     " + std::to_string(appends.samples.size()) +
               " appends of " + std::to_string(kBatchRows) + " rows every " +
               std::to_string(kAppendInterval * 1e3) + " ms; " +
               std::to_string(appends.compactions) + " compactions");

  if (args.trace) {
    ProbeInput in;
    in.saved_path = probe_path;
    in.table = &table;
    in.pool = &pool;
    in.batches = &batches;
    in.workload_serves = true;
    in.durable_done = true;
    in.work_dir = args.work_dir;
    in.exec_threads = Options().exec_threads;
    PH_RETURN_IF_ERROR(RunLayerProbe(in, &c, report));
    EmitLayerMetrics(c, report);
  }
  serving.reset();
  RemoveTree(dir);
  return Status::OK();
}

}  // namespace perfbench
