// adhoc: an embedded, single-threaded analyst with no serve layer. A stratified pool of Table-5 statements (1-5 predicates, AND/OR,
// COUNT/SUM/AVG/MIN/MAX/MEDIAN/VAR) is cycled as fresh SQL text through
// Db::ExecuteSql over a GreedyGD-compressed monolithic synopsis (the
// paper's configuration), so parse, compile, Eq.-29 weighting and the
// SIMD kernels do the work and GreedyGD runs in set-up. A short open-loop
// run of Db::Append batches and a save → reopen restart close the run.
#include <optional>
#include <string>

#include "workloads.h"

namespace perfbench {

using pairwisehist::DbOptions;

namespace {

constexpr size_t kRows = 200000;
constexpr double kMinSelectivity = 1e-3;
constexpr size_t kPage = 8;
constexpr size_t kBatchRows = 500;
constexpr double kAppendInterval = 0.030;

DbOptions Options() {
  DbOptions o;
  o.compress = true;
  o.keep_table = false;
  o.build_threads = 1;
  o.exec_threads = 1;
  return o;
}

}  // namespace

Status RunAdhoc(const Args& args, Report* report) {
  RunConfig cfg;
  cfg.workload = "adhoc";
  cfg.seed = args.seed;
  cfg.rows = kRows;
  cfg.clients = 1;
  cfg.exec_threads = Options().exec_threads;
  cfg.build_threads = Options().build_threads;
  PH_RETURN_IF_ERROR(cfg.Guard());
  PH_ASSIGN_OR_RETURN(const std::vector<int> cpus, PinnableCpus(1));
  PH_RETURN_IF_ERROR(PinThisThread(cpus[0]));
  cfg.cpus = std::to_string(cpus[0]);
  report->Note("config     " + cfg.Describe());

  // Inputs, outside every timed region; the statement pool is drawn from
  // the seed once the set-up synopsis exists.
  PH_ASSIGN_OR_RETURN(Table table, MakeTable(kRows));
  PH_ASSIGN_OR_RETURN(std::vector<Table> batches, MakeBatches(8, kBatchRows));
  report->Phase("inputs");

  // Set-up: raw table in hand → first answerable query, several times.
  if (args.trace) Tracer::Enable(true);
  std::optional<Db> db;
  std::vector<double> setups;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    Table copy = table.Slice(0, table.NumRows());
    db.reset();
    Span span("adhoc.setup");
    const double t0 = NowS();
    StatusOr<Db> built = [&] {
      Span s("api.Db::FromTable");
      return Db::FromTable(std::move(copy), Options());
    }();
    if (!built.ok()) return built.status();
    db = std::move(built).value();
    {
      Span s("api.Db::ExecuteSql");
      PH_RETURN_IF_ERROR(db->ExecuteSql(FirstQuerySql(table)).status());
    }
    setups.push_back(NowS() - t0);
  }
  Tracer::Enable(false);
  report->Phase("setup");
  const double bytes_per_row =
      static_cast<double>(db->StorageBytes()) / static_cast<double>(kRows);

  size_t redrawn = 0;
  PH_ASSIGN_OR_RETURN(
      std::vector<Statement> pool,
      MakeStatementPool(table, args.seed, kAccuracyPerStratum,
                        kMinSelectivity, ContractScreen(*db), &redrawn));
  PH_ASSIGN_OR_RETURN(const Accuracy acc, AccuracyOn(*db, table, pool));
  GateContract("pool", pool.size() + redrawn, redrawn + acc.broken, report);
  report->Phase("accuracy");

  // Measured reads: the pool cycled as fresh SQL text, every answer
  // checked. With --trace 1 untraced and traced slots alternate; the
  // difference in time per statement is the tracing overhead.
  const double read_secs = args.seconds * 0.6;
  const size_t appends_n =
      static_cast<size_t>(args.seconds * 0.3 / kAppendInterval);
  EndToEnd e;
  double slot_time[2] = {0, 0};
  uint64_t slot_ops[2] = {0, 0};
  const double t_start = NowS();
  double page_start = t_start;
  size_t i = 0;
  for (;; ++i) {
    const double now = NowS();
    if (now - t_start >= read_secs && i % kPage == 0) break;
    const int slot = TracedSlot(args.trace, now, t_start);
    Tracer::EnableThisThread(slot);
    const Statement& st = pool[i % pool.size()];
    if (i % kPage == 0) page_start = now;
    const double t0 = NowS();
    StatusOr<QueryResult> r = [&] {
      Span s("api.Db::ExecuteSql");
      return db->ExecuteSql(st.sql);
    }();
    const double t1 = NowS();
    ++report->attempted;
    if (!r.ok()) {
      report->Fail(r.status().ToString());
    } else {
      const std::string bad = CheckAnswer(st, r.value());
      if (!bad.empty()) report->Fail(bad);
    }
    e.query_us.push_back({t1, (t1 - t0) * 1e6});
    slot_time[slot] += t1 - t0;
    ++slot_ops[slot];
    if (i % kPage == kPage - 1) {
      e.page_us.push_back({t1, (t1 - page_start) * 1e6});
    }
  }
  e.read_begin = t_start;
  e.read_end = NowS();
  Tracer::EnableThisThread(-1);
  report->Phase("reads");
  if (args.trace) Tracer::Enable(true);

  // The traced run's probe decomposes the reads, so it works on the
  // synopsis they ran against.
  const std::string probe_path = args.work_dir + "/probe.pws3";
  if (args.trace) PH_RETURN_IF_ERROR(db->Save(probe_path));

  // Appends: Db::Append of fresh batches on an open-loop schedule.
  const uint64_t rows_before = db->total_rows();
  uint64_t rows_acked = 0;
  std::vector<OpenLoopSample> appends = RunOpenLoop(
      appends_n, kAppendInterval,
      [&](size_t k) -> std::string {
        Status st;
        {
          Span s("api.Db::Append");
          st = db->Append(batches[k % batches.size()]);
        }
        if (!st.ok()) return "Db::Append: " + st.ToString();
        rows_acked += kBatchRows;
        return "";
      },
      report);
  ++report->attempted;
  if (db->total_rows() != rows_before + rows_acked) {
    report->Fail("row count after appends does not match acknowledged appends");
  }
  report->Phase("appends");

  // Restart: save, then reopen + verify + first answer; the reopened
  // synopsis must answer bit-equal to the live one.
  const std::string path = args.work_dir + "/adhoc.pws3";
  PH_ASSIGN_OR_RETURN(double recover_s,
                      MeasureRestart(*db, path, pool, kRestartReps,
                                     cfg.exec_threads, report));
  Tracer::Enable(false);
  report->Phase("restart");

  e.setup_s = Median(setups);
  e.appends = std::move(appends);
  e.recover_s = recover_s;
  e.accuracy = acc;
  e.bytes_per_row = bytes_per_row;
  EmitEndToEnd(e, report);

  if (args.trace) {
    LayerCounters c;
    c.overhead_pct = OverheadPct(slot_time, slot_ops);
    ProbeInput in;
    in.saved_path = probe_path;
    in.table = &table;
    in.pool = &pool;
    in.batches = &batches;
    in.work_dir = args.work_dir;
    PH_RETURN_IF_ERROR(RunLayerProbe(in, &c, report));
    EmitLayerMetrics(c, report);
  }
  return Status::OK();
}

}  // namespace perfbench
