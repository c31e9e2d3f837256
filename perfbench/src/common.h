// Shared pieces of the three workloads: run configuration and its thread
// guard, seeded statement pools, exact answers and accuracy, result
// checks, the metric report, the pipelined HTTP client and the open-loop
// append schedule.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/db.h"
#include "common/status.h"
#include "query/ast.h"
#include "serve/serving_db.h"
#include "stats.h"
#include "storage/table.h"
#include "trace.h"

namespace perfbench {

using pairwisehist::Db;
using pairwisehist::Query;
using pairwisehist::QueryResult;
using pairwisehist::Status;
using pairwisehist::StatusOr;
using pairwisehist::Table;

/// Command-line arguments.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for WAL, checkpoints and the span dump (inside the
  /// checkout the benchmark runs from).
  std::string work_dir;
};

double NowS();
double PeakRssMb();

/// What a run is configured with, printed beside its results so that only
/// runs with matching configurations are compared. Thread counts follow
/// the library's conventions: exec_threads and build_threads count the
/// calling thread, so 1 adds no thread.
struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  size_t rows = 0;
  unsigned clients = 0;         ///< load-generating threads
  unsigned server_threads = 0;  ///< HTTP connection threads
  unsigned exec_threads = 1;    ///< cross-segment fan-out (DbOptions)
  unsigned build_threads = 1;   ///< synopsis construction (DbOptions)
  std::string fsync = "none";   ///< WAL fsync policy
  std::string cpus;             ///< CPUs the threads are pinned to (PinThisThread)

  /// Threads that run at once: clients, server threads, and the threads
  /// exec_threads and build_threads add beyond their callers.
  unsigned PeakThreads() const;
  /// Refuses a configuration whose threads exceed the machine's nproc.
  Status Guard() const;
  /// One line with every field, the peak thread count and the SIMD
  /// kernel tier the library picked.
  std::string Describe() const;
};

/// The `n` highest-numbered CPUs the calling thread may run on, highest
/// first (CPU 0 takes most device interrupts); an error when there are
/// fewer.
StatusOr<std::vector<int>> PinnableCpus(size_t n);

/// Pins the calling thread, and every thread it starts afterwards, to
/// `cpu`. Threads that hand work to each other on one CPU never wait for
/// an idle virtual CPU to be woken, which on a shared virtual machine was
/// the most variable delay of a round trip.
Status PinThisThread(int cpu);

/// Set-ups per run (setup_s is their median) and restarts per run
/// (recover_s is their median; with 5, one slow stretch of the machine
/// moved the dashboard's recover_s by 30 % between runs).
constexpr size_t kSetupReps = 5;
constexpr size_t kRestartReps = 21;

/// One statement of a workload pool.
struct Statement {
  std::string sql;
  Query query;
};

/// The `power` table a workload starts from. It is the same for every
/// seed: a different table fits a different synopsis, and between seeds
/// that alone moves accuracy and per-statement cost by more than any
/// bound. The seed draws everything else — statements, pages and append
/// batches.
StatusOr<Table> MakeTable(size_t rows);

/// Append batches of `rows` rows each, also the same for every seed (the
/// synopsis an append stream leaves behind must not change with it).
StatusOr<std::vector<Table>> MakeBatches(size_t count, size_t rows);

/// Statements per stratum of the accuracy pool (x 35 strata = 1400): at
/// this size the median relative error moves by a few percent between
/// seeds, against tens of percent for a few hundred statements.
constexpr size_t kAccuracyPerStratum = 40;

/// Decides whether a drawn statement enters a pool.
using Screen = std::function<bool(const Statement&)>;

/// A stratified statement pool drawn with the library's Table-5 workload
/// generator (ScaledWorkloadConfig), selectivity checked on a uniform
/// sample of `table`: `per_stratum` statements for every (predicate count
/// 1..5, aggregate) pair, so the pool's mix of shapes is the same on every
/// seed. A statement `screen` rejects is replaced by the stratum's next
/// draw and counted in `*redrawn`.
StatusOr<std::vector<Statement>> MakeStatementPool(
    const Table& table, uint64_t seed, size_t per_stratum,
    double min_selectivity, const Screen& screen, size_t* redrawn);

/// Dashboard pages: each page is `page_size` aggregates over one WHERE
/// clause of three predicates drawn like the pool above. A page
/// with any statement `screen` rejects is redrawn whole.
StatusOr<std::vector<std::vector<Statement>>> MakePages(
    const Table& table, uint64_t seed, size_t num_pages, size_t page_size,
    double min_selectivity, const Screen& screen, size_t* redrawn);

/// The statement every set-up answers first (independent of the pools,
/// which are drawn after set-up).
std::string FirstQuerySql(const Table& table);

/// Keeps statements whose answer on `db` meets the answer contract
/// (CheckAnswer). The library breaks it for a small share of statements
/// (about one in a thousand: an estimate outside its own bounds); pools
/// are screened against the set-up synopsis so that the measured phase
/// does not repeat a known-broken statement. GateContract bounds how many
/// statements the screen may drop.
Screen ContractScreen(const Db& db);

/// Accuracy of approximate answers against exact ones (paper Table 5/6).
struct Accuracy {
  size_t n = 0;       ///< statements the figures cover
  size_t broken = 0;  ///< left out: failed or broke the answer contract
  double rel_err_p50_pct = 0;
  double bounds_correct_pct = 0;
  double ci_width_p50_pct = 0;
};

/// Accuracy of `db` over `pool` against exact answers on `table` (every
/// row `db` holds). Relative error and width use a sanity bound of 1e-3
/// of the same aggregate over the whole table. Runs outside every timed
/// region.
StatusOr<Accuracy> AccuracyOn(const Db& db, const Table& table,
                              const std::vector<Statement>& pool);

/// The per-answer contract: finite estimate and bounds, lower <= estimate
/// <= upper, and COUNT >= 0. Returns an empty string when it holds.
std::string CheckAnswer(const Statement& st, const QueryResult& r);

/// True when two results are bit-equal (labels, estimates, bounds, flags).
bool BitEqual(const QueryResult& a, const QueryResult& b);

/// Metrics and outcome counts of one run.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< human-readable lines
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Logs a finished phase and its wall time to stderr.
  void Phase(const char* name);
  /// Counts one failed operation and keeps the first few messages.
  void Fail(const std::string& what);
  std::vector<std::string> failures;
  double phase_start = NowS();
};

/// The answer-contract gate of one pool: counts its `checked` statements
/// (drawn and screened, or answered) as attempted and prints how many of
/// them broke the contract. A pool tolerates 2 breaks plus 1 per thousand
/// statements checked (3 of the 1440 drawn for a 1400-statement pool, 2
/// on the dashboard pages): over seeds 1-10 no pool had more than one,
/// and the slack keeps an unseen seed from failing on chance alone. Every
/// break beyond the tolerance counts as a failed operation, so a change
/// that breaks the contract several times more often fails the run.
void GateContract(const std::string& what, size_t checked, size_t broken,
                  Report* report);

/// A workload's end-to-end figures, emitted under the names BENCHMARK.json
/// lists. Every workload fills every field; see perfbench/README.md for
/// what each means on each workload.
struct EndToEnd {
  double setup_s = 0;
  /// The measured read phase, [read_begin, read_end) in NowS() time; its
  /// samples are summarized per window (SummarizeWindows).
  double read_begin = 0;
  double read_end = 0;
  std::vector<TimedSample> query_us;  ///< one read statement each
  std::vector<TimedSample> page_us;   ///< one 8-statement page each
  std::vector<OpenLoopSample> appends;
  double recover_s = 0;
  Accuracy accuracy;
  double bytes_per_row = 0;
};
/// Adds the end-to-end metrics (peak RSS is read now) and their notes.
void EmitEndToEnd(const EndToEnd& e, Report* report);

/// Tracing overhead in percent from the mean time per operation of the
/// untraced (index 0) and traced (index 1) slots of the same phase.
double OverheadPct(const double time[2], const uint64_t ops[2]);

/// With --trace 1 the measured phase alternates untraced and traced
/// 250 ms slots, so the state drifting during the phase (segments
/// accumulating, caches warming) falls on both sides of the overhead
/// comparison. Returns 1 inside a traced slot, 0 otherwise; the reading
/// thread hands it to Tracer::EnableThisThread.
int TracedSlot(bool trace, double now, double phase_start);

/// Runs `once` `reps` times (each returns the seconds it took, or an
/// error) and returns the median.
StatusOr<double> MedianOf(size_t reps,
                          const std::function<StatusOr<double>()>& once);

/// The restart of an embedded or in-memory synopsis: saves `live` as PWS3
/// to `path`, then `reps` times reopens it (mmap) + verifies its checksums
/// + answers the pool's first statement, and returns the median seconds
/// from file to first answer. Every pool statement must then answer
/// bit-equal on the reopened and the live synopsis; mismatches are counted
/// as failures in `report`.
StatusOr<double> MeasureRestart(const Db& live, const std::string& path,
                                const std::vector<Statement>& pool,
                                size_t reps, unsigned exec_threads,
                                Report* report);

/// Open-loop schedule: calls op(i) for i in [0, n), each due `interval`
/// seconds after the previous one; an operation that finds the generator
/// late starts at once. op returns an empty string on success, otherwise
/// what failed; each call counts in report->attempted and each failure
/// goes to report->Fail. `after(i)`, when given, runs once op(i)'s end is
/// stamped: work the schedule absorbs as lag but that is not op(i)'s
/// latency. Returns one sample per operation.
std::vector<OpenLoopSample> RunOpenLoop(
    size_t n, double interval, const std::function<std::string(size_t)>& op,
    Report* report, const std::function<void(size_t)>& after = nullptr);

/// A keep-alive HTTP/1.1 connection that pipelines a page of POSTs and
/// timestamps each response as it completes.
class PipelinedClient {
 public:
  ~PipelinedClient();
  Status Connect(uint16_t port);
  struct Response {
    int status = 0;
    std::string body;
    double done_s = 0;  ///< NowS() when the response was fully read
  };
  /// Sends every body as POST `path` in one write, then reads the
  /// responses in order.
  Status Page(const std::string& path, const std::vector<std::string>& bodies,
              std::vector<Response>* out);
  void Close();

 private:
  Status ReadResponse(Response* out);
  int fd_ = -1;
  std::string buf_;
};

/// {"sql": "..."} request body.
std::string QueryBody(const std::string& sql);

/// Parses a /query response body into `*out`; false when it is not one.
bool ParseQueryResponse(const std::string& body, uint64_t* epoch,
                        QueryResult* out);

/// Removes a directory tree (the run's scratch state).
void RemoveTree(const std::string& path);

/// Bytes of a file (0 when absent).
uint64_t FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
