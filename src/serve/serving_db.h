// ServingDb: a thread-safe, multi-reader serving wrapper around Db.
//
// The concurrency model is RCU-style snapshot swapping:
//  * Readers (`Query`, `QueryBatch`) atomically load the current
//    shared_ptr<DbSnapshot> — wait-free, no reader ever blocks on a
//    writer — and execute entirely against that pinned snapshot, so every
//    response reflects exactly one consistent epoch even while appends
//    land concurrently.
//  * `Append` (serialized by a writer mutex) builds the successor
//    snapshot off the serving threads with Db::WithAppended — sealed
//    segments are immutable and shared, only the new batch's segments are
//    built — then publishes it with one atomic store. Old snapshots are
//    refcounted away when the last in-flight reader and cached plan drop
//    them.
//
// Durability (opt-in via ServingOptions::durability.dir): every append is
// framed into a write-ahead log and fsynced per policy BEFORE the new
// snapshot is published, so an acknowledged append survives a crash. A
// background checkpointer periodically persists the full synopsis as
// checkpoint-<epoch>.pws3 (tmp + fsync + rename) and truncates the WAL;
// Recover() reopens the newest checkpoint and replays the WAL tail.
//
// Repeated statements hit a sharded LRU plan cache (serve/plan_cache.h),
// transparently: responses are bit-identical to uncached execution. A hit
// executes the cache's shared plan in place — no parse and no plan copy —
// so a hit into a warm QueryResult allocates nothing whenever the engine
// does not (see PreparedQuery::ExecuteInto). Query and QueryBatch run one
// reader on their caller's thread: load the snapshot, apply the
// quarantine gate once, take each statement's plan (from the cache, or
// prepared fresh on a degraded read) and run one batch execution. A Query
// is a batch of one; grouping statements into a larger batch is the
// caller's choice, through QueryBatch (the HTTP layer batches /batch
// bodies and pipelined /query bursts that way). There is no cross-caller
// grouping.
#ifndef PAIRWISEHIST_SERVE_SERVING_DB_H_
#define PAIRWISEHIST_SERVE_SERVING_DB_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/object_pool.h"
#include "serve/plan_cache.h"
#include "serve/snapshot.h"
#include "storage/wal.h"

namespace pairwisehist {

/// Crash-safety knobs. An empty `dir` means in-memory serving (the
/// pre-durability behavior, and still the default).
struct DurabilityOptions {
  /// Directory holding wal.log + checkpoint-<epoch>.pws3 files.
  std::string dir;
  /// WAL fsync policy: when an append is acknowledged relative to the
  /// bytes being on stable storage (see WalOptions::Fsync).
  WalOptions::Fsync fsync = WalOptions::Fsync::kAlways;
  uint32_t fsync_interval_ms = 20;
  /// Background checkpoint cadence. 0 = only explicit Checkpoint() calls
  /// (and the one a graceful shutdown takes).
  uint32_t checkpoint_interval_ms = 0;
  /// Skip a periodic checkpoint when fewer than this many appends landed
  /// since the last one (avoids rewriting an unchanged synopsis).
  uint64_t checkpoint_min_appends = 1;
};

struct ServingOptions {
  /// Prepared-plan cache size (entries) and shard count.
  size_t plan_cache_capacity = 1024;
  size_t plan_cache_shards = 8;
  DurabilityOptions durability;
  /// Segment lifecycle (storage/compactor.h): with `compaction.enabled`
  /// and interval_ms > 0 a background thread merges eligible segment runs
  /// and publishes the result through the snapshot swap; CompactNow()
  /// runs one step explicitly either way.
  CompactionOptions compaction;
};

/// What Recover() found on disk.
struct RecoveryInfo {
  uint64_t checkpoint_epoch = 0;   ///< epoch of the checkpoint opened
  uint64_t wal_records = 0;        ///< valid WAL records read
  uint64_t wal_records_applied = 0;///< records with epoch > checkpoint
  uint64_t rows_recovered = 0;     ///< rows re-appended from the WAL
  bool tail_truncated = false;     ///< a torn final record was dropped
  /// Checkpoint files skipped as corrupt before one opened and verified.
  uint32_t checkpoints_skipped = 0;
  /// Path of the newest corrupt checkpoint (empty when none was skipped).
  std::string corrupt_checkpoint;
};

/// Per-read options (the HTTP layer maps X-Allow-Degraded onto these).
struct ReadOptions {
  /// Answer from the surviving segments when some are quarantined,
  /// instead of failing closed. OR-ed with the Db's own allow_degraded.
  bool allow_degraded = false;
};

/// How degraded a degraded answer is (all zero for a full answer).
struct DegradedInfo {
  bool degraded = false;
  uint64_t rows_skipped = 0;     ///< rows in the skipped segments
  uint32_t segments_skipped = 0;
};

/// A point-in-time counter dump (see ServingDb::Stats).
struct ServingStats {
  uint64_t epoch = 0;
  uint64_t segments = 0;
  uint64_t rows = 0;
  uint64_t queries = 0;           ///< Query calls (/query statements)
  uint64_t batches = 0;           ///< QueryBatch calls (/batch, bursts)
  uint64_t batch_statements = 0;  ///< statements across QueryBatch calls
  /// Always 0 (no cross-caller grouping); kept for existing readers.
  uint64_t coalesced_groups = 0;
  uint64_t coalesced_statements = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_entries = 0;
  uint64_t appends = 0;
  /// Statements that got an error, counted alike on Query and QueryBatch:
  /// a refused read (quarantine gate, no snapshot) counts every statement
  /// it carried, a failed prepare counts its statement, and a failed batch
  /// execution counts every statement it was running.
  uint64_t errors = 0;
  /// Bytes of the current snapshot's synopsis borrowed zero-copy from a
  /// memory-mapped PWS3 checkpoint (0 when heap-backed, e.g. built
  /// fresh). Appended snapshots keep sharing the recovered segments, so
  /// the mapping persists across appends until the segments are dropped.
  uint64_t mapped_bytes = 0;
  // Durability (all zero when serving in-memory).
  bool durable = false;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t last_checkpoint_epoch = 0;
  uint64_t checkpoints = 0;
  uint64_t recovered_records = 0;
  uint64_t recovered_rows = 0;
  bool recovery_tail_truncated = false;
  // Integrity (see core/integrity.h).
  uint64_t quarantined_segments = 0;
  uint64_t quarantined_rows = 0;
  uint64_t scrub_errors = 0;
  /// Statements read from the degraded view (surviving segments only),
  /// counted alike on Query and QueryBatch.
  uint64_t degraded_reads = 0;
  uint32_t checkpoints_skipped = 0;
  std::string corrupt_checkpoint;
  // Segment lifecycle (compaction).
  bool compaction_enabled = false;
  uint64_t compaction_seq = 0;        ///< current snapshot's generation
  uint64_t compaction_runs = 0;       ///< swaps published
  uint64_t compaction_segments_merged = 0;
  uint64_t compaction_rows_rewritten = 0;
  uint64_t compaction_bytes_rewritten = 0;  ///< serialized merged synopses
  uint64_t compaction_backlog = 0;    ///< segments in eligible merge runs
  uint64_t compaction_errors = 0;
  uint64_t quarantine_drained = 0;    ///< quarantined segments rebuilt
  uint64_t retained_bytes = 0;        ///< rebuild-row retention buffer
};

class ServingDb {
 public:
  /// Takes ownership of `db` as epoch `start_epoch` (in-memory serving;
  /// durability options in `options` are ignored — use CreateDurable).
  explicit ServingDb(Db db, ServingOptions options = {},
                     uint64_t start_epoch = 0);
  ~ServingDb();

  ServingDb(const ServingDb&) = delete;
  ServingDb& operator=(const ServingDb&) = delete;

  /// Durable serving over a FRESH database: writes the epoch-0 checkpoint
  /// and an empty WAL into durability.dir (which must not already hold
  /// serving state — use Recover for that), then serves. Every subsequent
  /// Append is WAL-logged before it is acknowledged.
  static StatusOr<std::unique_ptr<ServingDb>> CreateDurable(
      Db db, ServingOptions options);

  /// Durable serving resumed from durability.dir: opens the newest
  /// USABLE checkpoint — candidates are tried newest-first, and one that
  /// fails to open or fails its integrity sweep is skipped whenever an
  /// older checkpoint plus the WAL still covers every acknowledged epoch
  /// (a crash between checkpoint-rename and WAL-truncate leaves exactly
  /// that fallback window) — then replays the WAL tail and serves. A torn
  /// final WAL record is truncated and reported in recovery_info(); any
  /// recovery that would silently lose an acknowledged epoch fails with
  /// DataLoss naming the corrupt checkpoint file.
  ///
  /// `db_options` are the Db::Open options of the checkpoint, so they
  /// should match the options the state was created with: WAL replay
  /// re-seals each logged batch in target_segment_rows chunks exactly as
  /// the live server did. Candidates are verified synchronously during
  /// recovery regardless of db_options.scrub; with scrub_repeat_ms > 0
  /// continuous scrubbing starts on the recovered state.
  static StatusOr<std::unique_ptr<ServingDb>> Recover(
      ServingOptions options, const DbOptions& db_options = {});

  /// The current snapshot (wait-free atomic load). Holding the returned
  /// pointer pins that epoch — including across subsequent appends.
  std::shared_ptr<const DbSnapshot> snapshot() const;

  /// Executes one statement against the current snapshot, through the
  /// plan cache: a batch of one. `*epoch` (optional) reports the epoch of
  /// the snapshot the read ran against; it is set on Query and QueryBatch
  /// alike whenever a snapshot was loaded, even if the read then fails.
  /// Fails closed with DataLoss when integrity verification has
  /// quarantined any segment, unless the snapshot's Db was opened with
  /// allow_degraded. Same as the ReadOptions overload with defaults.
  Status Query(const std::string& sql, QueryResult* result,
               uint64_t* epoch = nullptr);

  /// Same with per-read options: with ropts.allow_degraded (or the Db's
  /// own allow_degraded) a quarantine degrades the answer — the surviving
  /// segments answer, bypassing the plan cache, and
  /// `*degraded` (optional) reports what was skipped — instead of failing
  /// closed.
  Status Query(const std::string& sql, const ReadOptions& ropts,
               QueryResult* result, DegradedInfo* degraded,
               uint64_t* epoch = nullptr);

  /// Executes `sqls` as one explicit batch against one snapshot.
  /// `results` and `statement_status` are resized to sqls.size();
  /// statements that fail to parse/prepare get their error status while
  /// the rest still execute. Returns non-OK only for whole-batch failures.
  Status QueryBatch(const std::vector<std::string>& sqls,
                    std::vector<QueryResult>* results,
                    std::vector<Status>* statement_status,
                    uint64_t* epoch = nullptr);

  /// Batch with per-read options; quarantine handling as in the Query
  /// overload (a degraded batch prepares each statement against the
  /// surviving segments and executes them there as one batch).
  Status QueryBatch(const std::vector<std::string>& sqls,
                    const ReadOptions& ropts,
                    std::vector<QueryResult>* results,
                    std::vector<Status>* statement_status,
                    DegradedInfo* degraded, uint64_t* epoch = nullptr);

  /// Builds and publishes the successor snapshot containing `batch`.
  /// Serialized with other appends; never blocks readers. Under
  /// durability the order is: build successor → WAL append + fsync →
  /// publish → return OK; a crash anywhere before the WAL write leaves no
  /// trace, after it the batch is recovered (acknowledged ⊆ recovered).
  Status Append(const Table& batch);

  /// Persists the current snapshot as checkpoint-<epoch>.pws3 and
  /// truncates the WAL (durable mode only; Unsupported otherwise). Blocks
  /// concurrent appends for the duration; readers are unaffected.
  Status Checkpoint();

  /// Runs one compaction step: picks the highest-priority eligible run
  /// under options().compaction, builds the merged segment OFF the append
  /// lock (readers keep serving), then publishes a same-epoch snapshot
  /// with compaction_seq + 1 under the append lock. `*did` (optional)
  /// reports whether a compaction was applied. Durable mode with
  /// compaction.checkpoint_after also checkpoints the compacted state; a
  /// crash before that checkpoint recovers the PRE-compaction segment set
  /// (the WAL is untouched — both states are consistent, never a mix).
  Status CompactNow(bool* did = nullptr);

  /// One published compaction, in apply order (the per-epoch replay log:
  /// re-applying each event's spec right after its epoch's append
  /// reproduces the exact segment structure).
  struct CompactionEvent {
    uint64_t seq = 0;    ///< compaction_seq of the published snapshot
    uint64_t epoch = 0;  ///< epoch it was applied at
    CompactionSpec spec;
    uint32_t segments_merged = 0;
    uint64_t rows = 0;
    uint64_t bytes_rewritten = 0;
  };
  std::vector<CompactionEvent> CompactionLog() const;

  ServingStats Stats() const;
  const ServingOptions& options() const { return options_; }
  const RecoveryInfo& recovery_info() const { return recovery_; }
  bool durable() const { return wal_ != nullptr; }

  /// Moves the Db back out (for aqp_shell's `.serve` round-trip). Fails
  /// unless all traffic has stopped: the plan cache is cleared, and no
  /// outstanding snapshot() reference may remain. Unsupported in durable
  /// mode (the on-disk state, not the in-memory Db, is the artifact).
  StatusOr<Db> TakeDb();

 private:
  /// The one read body of Query and QueryBatch over sqls[0..n): loads the
  /// snapshot, applies the quarantine gate once, takes each statement's
  /// PreparedQuery (plan cache, or Prepare on the degraded view) and runs
  /// one ExecuteBatchInto on the executor those plans belong to.
  /// statuses[0..n) must be OK on entry; statement i's own error lands in
  /// statuses[i]. A non-OK return refuses the whole read. Counts errors
  /// and degraded reads per statement.
  Status Read(const std::string* sqls, size_t n, const ReadOptions& ropts,
              QueryResult* results, Status* statuses, DegradedInfo* degraded,
              uint64_t* epoch);
  /// The degraded view of `snap` (surviving segments only), cached per
  /// (snapshot, quarantine version) so repeated degraded reads do not
  /// rebuild the executor.
  StatusOr<std::shared_ptr<const Db>> DegradedDb(
      const std::shared_ptr<const DbSnapshot>& snap);
  std::shared_ptr<DbSnapshot> Load() const;
  /// Opens the WAL + starts the checkpointer. `recovered` seeds recovery_.
  Status InitDurable(const RecoveryInfo& recovered);
  /// Checkpoint body; append_mu_ must be held.
  Status CheckpointLocked();
  void CheckpointerLoop();
  void CompactorLoop();
  /// Keeps `rows` (spanning [row_begin, row_begin + rows.NumRows())) in
  /// the bounded retention buffer so checkpoint-recovered serving (no kept
  /// raw table) can still rebuild segments. Oldest batches evict first.
  void RetainRows(uint64_t row_begin, Table rows);
  /// Whether the retention buffer contiguously covers [begin, end).
  bool CanStitchRetained(uint64_t begin, uint64_t end) const;
  /// Materializes rows [begin, end) from the retention buffer.
  StatusOr<Table> StitchRetained(uint64_t begin, uint64_t end) const;

  ServingOptions options_;
  /// Accessed only via std::atomic_load / std::atomic_store.
  std::shared_ptr<DbSnapshot> snapshot_;
  std::mutex append_mu_;  ///< serializes Append / Checkpoint / TakeDb
  PlanCache cache_;
  /// Read's per-call bookkeeping, pooled so a warm read allocates nothing
  /// here. Empty between reads: a held plan would pin its snapshot.
  struct ReadScratch {
    std::vector<std::shared_ptr<const PreparedQuery>> plans;
    std::vector<size_t> stmt;  ///< plans[k] answers statement stmt[k]
  };
  ObjectPool<ReadScratch> read_pool_;

  // Durability state (null/empty when serving in-memory).
  std::unique_ptr<Wal> wal_;
  RecoveryInfo recovery_;
  uint64_t appends_since_checkpoint_ = 0;  ///< guarded by append_mu_
  /// A compaction swap was published but not yet checkpointed (guarded by
  /// append_mu_); nudges the periodic checkpointer even with no appends.
  bool compaction_since_checkpoint_ = false;
  std::atomic<uint64_t> last_checkpoint_epoch_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::thread checkpointer_;
  std::mutex cp_mu_;
  std::condition_variable cp_cv_;
  bool cp_stop_ = false;

  // Segment lifecycle (compaction) state.
  std::thread compactor_;
  std::mutex co_mu_;
  std::condition_variable co_cv_;
  bool co_stop_ = false;
  mutable std::mutex events_mu_;
  std::vector<CompactionEvent> events_;  ///< guarded by events_mu_
  std::atomic<uint64_t> compaction_runs_{0};
  std::atomic<uint64_t> compaction_segments_merged_{0};
  std::atomic<uint64_t> compaction_rows_rewritten_{0};
  std::atomic<uint64_t> compaction_bytes_rewritten_{0};
  std::atomic<uint64_t> compaction_errors_{0};
  std::atomic<uint64_t> quarantine_drained_{0};
  /// Bounded retention of recent append rows (recovered serving has no
  /// kept raw table; these are the rebuild source). Guarded by
  /// retained_mu_.
  struct RetainedBatch {
    uint64_t row_begin = 0;
    uint64_t row_end = 0;
    Table rows;
  };
  mutable std::mutex retained_mu_;
  std::deque<RetainedBatch> retained_;
  size_t retained_bytes_ = 0;

  // Degraded-read cache: the WithoutQuarantined view of one snapshot,
  // keyed on the snapshot identity and its quarantine version (a newly
  // quarantined segment invalidates it).
  std::mutex degraded_mu_;
  std::shared_ptr<const DbSnapshot> degraded_src_;
  std::shared_ptr<const Db> degraded_db_;
  uint64_t degraded_qversion_ = 0;
  std::atomic<uint64_t> degraded_reads_{0};

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batch_statements_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> errors_{0};
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_SERVE_SERVING_DB_H_
