// The three workloads and the traced run's layer probe.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

Status RunDashboard(const Args& args, Report* report);
Status RunAdhoc(const Args& args, Report* report);
Status RunIngest(const Args& args, Report* report);

/// Per-layer figures the workloads and the probe measure directly (the
/// span-derived ones — build, save, open, verify, append, compaction and
/// checkpoint self times — come from the tracer at emit time).
struct LayerCounters {
  double http_us = 0;
  double servingdb_query_us = 0;
  double plan_cache_hit_ratio = 0;
  double statements_per_group = 0;
  double append_wait_ms = 0;
  uint64_t compactions = 0;
  double prepare_us = 0;
  double execute_us = 0;
  double execute_batch_us_per_stmt = 0;
  double with_appended_ms = 0;
  double save_ms = 0;
  double open_ms = 0;
  double verify_ms = 0;
  double parse_us = 0;
  double compile_us = 0;
  double engine_exec_us = 0;
  double fanout_exec_us = 0;
  double segments_pruned_ratio = 0;
  uint64_t segments = 0;
  uint64_t pws3_bytes = 0;
  double compress_s = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  double write_amp = 0;
  uint64_t compaction_rows_rewritten = 0;
  double overhead_pct = 0;
};

/// Durable serving as the benchmark runs it: WAL fsync on every append,
/// tiered compaction sized for `batch_rows`-row appends.
pairwisehist::ServingOptions DurableServingOptions(const std::string& dir,
                                                   size_t batch_rows);

/// A durable ServingDb's append stream: one batch per open-loop slot,
/// each followed by CompactNow() until nothing is eligible, so compaction
/// counts repeat exactly for a given schedule. Latency counts from the
/// due time to the append's acknowledgement.
struct DurableAppends {
  std::vector<OpenLoopSample> samples;
  uint64_t rows_acked = 0;
  uint64_t bytes_appended = 0;    ///< raw bytes of acknowledged batches
  uint64_t checkpoint_bytes = 0;  ///< checkpoint files written meanwhile
  uint64_t compactions = 0;
};
DurableAppends RunDurableAppends(pairwisehist::ServingDb* serving,
                                 const std::vector<Table>& batches, size_t n,
                                 double interval, const std::string& dir,
                                 Report* report);

/// Storage figures of a durable ServingDb after an append stream.
void FillStorageCounters(const pairwisehist::ServingDb& serving,
                         const DurableAppends& appends, LayerCounters* c);

/// Plan-cache hit ratio and statements per executed group of a ServingDb
/// between two of its Stats() readings (around a read phase).
void FillServeCounters(const pairwisehist::ServingStats& before,
                       const pairwisehist::ServingStats& after,
                       LayerCounters* c);

/// What the traced run's layer probe works on: the synopsis the
/// workload's reads ran against, saved as PWS3, with its statements and
/// append batches.
struct ProbeInput {
  std::string saved_path;  ///< PWS3 file of the read-phase synopsis
  const Table* table = nullptr;  ///< the workload's initial raw table
  const std::vector<Statement>* pool = nullptr;
  const std::vector<Table>* batches = nullptr;
  /// True when the workload served through its own ServingDb and filled
  /// the plan-cache and grouping counters from it; otherwise the probe
  /// reports its own ServingDb's.
  bool workload_serves = false;
  /// True when the workload already ran a durable append stream (its
  /// storage counters are filled); otherwise the probe runs a short one.
  bool durable_done = false;
  std::string work_dir;
  unsigned exec_threads = 1;
};

/// Times each layer's public functions on the workload's own synopsis and
/// statements: parse, compile, engine and fan-out execution, Db prepare /
/// execute / batch / WithAppended, ServingDb::Query in process and over
/// HTTP, GreedyGD compression, and (unless durable_done) a short durable
/// append stream with compaction and a checkpoint.
Status RunLayerProbe(const ProbeInput& in, LayerCounters* c, Report* report);

/// Emits every per-layer metric by name.
void EmitLayerMetrics(const LayerCounters& c, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
