// pairwisehist::Db — the unified public facade over the whole pipeline.
//
// Everything downstream code previously wired by hand (CSV / generator /
// Table ingestion → optional GreedyGD compression → segmented PairwiseHist
// build → engine construction → exact ground-truth fallback → Fig.-6
// persistence → incremental append) sits behind one handle:
//
//   auto db = Db::FromGenerator("power", 100000, 42);
//   auto pq = db->Prepare("SELECT AVG(voltage) FROM power WHERE hour > 18;");
//   auto approx = pq->Execute();        // parse-once, execute-many hot path
//   auto exact  = pq->ExecuteExact();   // ground truth from the kept table
//
// Prepare() runs the parse → normalize → grid-selection stages of Fig. 7
// exactly once per segment; each Execute() then performs only coverage +
// weighting + aggregation (see AqpEngine::Compile). Many prepared
// statements execute together with ExecuteBatch, which shares coverage and
// weighting across statements on one aggregation grid.
//
// Segmentation: a Db holds one sealed PairwiseHist per row segment
// (DbOptions::target_segment_rows; 0 = the paper's single monolithic
// synopsis). Appends seal each batch as new segments with fresh bin edges
// — no accuracy drift — and a sealed segment never changes afterwards;
// queries fan out across segments in parallel with deterministic merged
// results (see query/segment_exec.h).
#ifndef PAIRWISEHIST_API_DB_H_
#define PAIRWISEHIST_API_DB_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/pairwise_hist.h"
#include "core/synopsis_set.h"
#include "gd/greedy_gd.h"
#include "query/engine.h"
#include "query/segment_exec.h"
#include "storage/compactor.h"
#include "storage/table.h"

namespace pairwisehist {

/// How Db::Open materializes a synopsis file.
enum class OpenMode {
  /// Zero-copy when the file allows it (PWS3 → kMmap, legacy → heap
  /// conversion). Overridable via the PWH_OPEN environment variable
  /// ("mmap" or "heap"), which is how CI forces a whole test run through
  /// one path.
  kAuto,
  /// Read the file once into an aligned heap buffer and decode it there (a
  /// PWS3 file by the same path as kMmap). Works for every format; never
  /// keeps a mapping.
  kHeap,
  /// Memory-map the file: a PWS3 synopsis opens in O(metadata) with every
  /// array bound as a span view into the shared page cache; legacy
  /// PWS2/PWH1 files transparently heap-convert (the mapping is dropped).
  kMmap,
};

/// On-disk format written by Db::Save.
enum class SaveFormat {
  /// Memory-mappable PWS3 (the default): O(1) reopen, larger on disk.
  kPws3,
  /// Compact Fig.-6 PWS2 container (the paper's storage encoding).
  kPws2,
};

/// Construction-time choices for a Db.
struct DbOptions {
  /// Synopsis build parameters (Ns, M, α, seed) — applied per segment.
  PairwiseHistConfig synopsis;
  /// Keep a GreedyGD-compressed copy of the data and seed the synopsis bin
  /// edges with its bases (the paper's compression ↔ AQP integration).
  /// Base-edge seeding applies to single-segment builds; a segmented build
  /// fits each segment's edges from its own rows.
  bool compress = false;
  /// GreedyGD tuning (used only when `compress` is set).
  GdConfig gd;
  /// Retain the raw table for exact ground-truth execution and for
  /// compaction rebuilds. Costs memory; synopsis-only queries work
  /// without it.
  bool keep_table = true;
  /// Engine refinement toggles, including the SIMD kernel tier
  /// (`engine.kernels`).
  AqpEngineOptions engine;
  /// Threads for parallel synopsis construction: with one segment these
  /// fan out the d(d-1)/2 pairwise histogram builds, with several segments
  /// the per-segment builds. 0 = one per hardware core, 1 = serial.
  /// Overrides `synopsis.build_threads` when non-zero; construction output
  /// is identical for any value.
  unsigned build_threads = 0;
  /// Target rows per sealed segment: 0 = one monolithic synopsis (the
  /// paper's layout). The initial build partitions the table into
  /// ceil(rows / target) contiguous segments; appended batches are sealed
  /// in chunks of at most this size.
  size_t target_segment_rows = 0;
  /// Threads for cross-segment query execution: 0 = one per hardware
  /// core, 1 = serial. Results are bit-identical for any value.
  unsigned exec_threads = 0;
  /// Planner pruning: skip segments whose per-column min/max provably
  /// cannot satisfy the WHERE clause.
  bool prune_segments = true;
  /// How Db::Open(path, options) materializes the synopsis file (ignored
  /// by the build-from-data constructors). See OpenMode.
  OpenMode open_mode = OpenMode::kAuto;
  /// Serve queries from the surviving segments when some are quarantined
  /// by integrity verification, instead of failing closed. Plumbed to
  /// ServingDb as its default; per-request opt-in (X-Allow-Degraded)
  /// overrides it there.
  bool allow_degraded = false;
  /// Background-scrub a memory-mapped PWS3 v2 open: one checksum sweep of
  /// the mapping starts after open (heap opens verify eagerly instead and
  /// ignore these knobs).
  bool scrub = true;
  /// Scrub rate limit in MB/s (0 = unthrottled).
  uint32_t scrub_mb_per_s = 128;
  /// Pause between scrub passes; 0 = a single pass, >0 = continuous
  /// scrubbing with this many milliseconds between sweeps.
  uint32_t scrub_repeat_ms = 0;
  /// Segment lifecycle: tiered background compaction + error-driven refit
  /// (see storage/compactor.h). When `compact.enabled`, Append drains
  /// eligible compactions after sealing and queries feed observed CI
  /// widths into the refit ledger.
  CompactionOptions compact;
};

class Db;

/// The output of the off-path compaction build phase: one merged segment
/// (fresh bin edges fitted over the whole merged row range) ready to be
/// published into a synopsis set by Db::WithCompactionApplied.
struct CompactedRun {
  std::shared_ptr<PairwiseHist> synopsis;
  SegmentMeta meta;
};

/// A SQL statement prepared against a Db: parsed, normalized and planned
/// once per segment, executable many times. Must not outlive the Db it
/// came from; Db::Append and Db::Compact keep prepared queries valid (plans
/// for newly sealed or replaced segments compile on next execution).
class PreparedQuery {
 public:
  /// An empty statement (Execute fails with Internal until assigned from
  /// Db::Prepare); lets containers and caches hold PreparedQuery slots.
  PreparedQuery() = default;

  /// Runs the approximate engine on the captured plans. Only coverage +
  /// weighting + aggregation (+ cross-segment merge) run per call.
  StatusOr<QueryResult> Execute() const;

  /// Same, into a caller-owned result whose group storage is reused: a
  /// batch of one through SegmentedExecutor::ExecuteBatchInto, the body
  /// Db::ExecuteBatch runs. With a warm result object the built-in engine
  /// performs zero heap allocations per call for scalar (non-GROUP-BY)
  /// queries whenever at most one segment is live after pruning (always,
  /// on a single-segment Db); grouped executions build label strings, and
  /// merging several live segments allocates merge scratch.
  Status ExecuteInto(QueryResult* result) const;

  /// Runs the query exactly against the kept raw table (Unsupported when
  /// the Db was opened without one).
  StatusOr<QueryResult> ExecuteExact() const;

  /// The statement as parsed (held once, by the plan; empty before
  /// Db::Prepare).
  const Query& query() const { return plan_.query(); }
  std::string ToSql() const { return query().ToSql(); }
  /// The per-segment plan set.
  const SegmentedPlan& plan() const { return plan_; }

 private:
  friend class Db;

  const SegmentedExecutor* exec_ = nullptr;
  const Table* table_ = nullptr;  // exact fallback (may be null)
  SegmentedPlan plan_;
};

/// The facade. Movable, not copyable; prepared queries remain valid across
/// moves (internal components have stable addresses).
///
/// Thread safety:
///  - All const methods — Prepare, Execute*, ExecuteBatch, Save,
///    introspection — are safe to call concurrently from any number
///    of threads on the same Db. Per-call execution state lives in scratch
///    leased from per-engine/per-executor pools (never in shared mutable
///    members), cross-segment fan-out serializes on the TaskPool
///    internally, and lazy plan extension after Append synchronizes on
///    each SegmentedPlan's own mutex with release/acquire publication.
///  - Append, CompactOnce and Compact are exclusive writers: no other call
///    (const or not) may run concurrently with them — Append grows the
///    synopsis set, raw table and compressed store in place, and a
///    compaction replaces segments in place.
///  - For readers that must never block during appends, take copy-on-append
///    snapshots with WithAppended (sealed segments are immutable and
///    shared) and swap whole Db instances — serve/ServingDb packages that
///    pattern behind an RCU-style atomic snapshot pointer.
class Db {
 public:
  Db(Db&&) = default;
  Db& operator=(Db&&) = default;
  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  // ---- Opening ----------------------------------------------------------
  /// Takes ownership of an in-memory table.
  static StatusOr<Db> FromTable(Table table, DbOptions options = {});
  /// Loads a CSV file (header row, inferred types).
  static StatusOr<Db> FromCsv(const std::string& path,
                              DbOptions options = {});
  /// Builds one of the named synthetic datasets (see datagen/datasets.h);
  /// rows == 0 uses the laptop-scale default.
  static StatusOr<Db> FromGenerator(const std::string& name, size_t rows,
                                    uint64_t seed, DbOptions options = {});
  /// Opens a synopsis previously written by Save(): full query capability,
  /// no raw data (exact fallback unavailable). Accepts PWS3 (zero-copy
  /// memory-mapped by default — see OpenMode), the PWS2 multi-segment
  /// container and PR-1-era single-synopsis PWH1 files. open_mode selects
  /// mmap vs heap; the query, append and lifecycle options apply as for a
  /// built Db (appends seal in target_segment_rows chunks), except that
  /// the sampling budget, M and α of appended segments are recovered from
  /// the file's newest segment.
  static StatusOr<Db> Open(const std::string& path,
                           const DbOptions& options = {});
  /// Same, from an in-memory serialized blob (always heap-decoded).
  static StatusOr<Db> FromBlob(const std::vector<uint8_t>& blob,
                               const DbOptions& options = {});

  // ---- Persistence ------------------------------------------------------
  /// Writes the synopsis: kPws3 (default) is the memory-mappable format,
  /// written atomically (tmp + fsync + rename); kPws2 is the compact
  /// Fig.-6 container. Open handles both transparently.
  Status Save(const std::string& path,
              SaveFormat format = SaveFormat::kPws3) const;
  /// The compact PWS2 image (the paper's storage encoding; heap-decoded by
  /// FromBlob).
  std::vector<uint8_t> ToBlob() const { return set_->Serialize(); }

  // ---- Queries ----------------------------------------------------------
  /// Parses + compiles once; the returned statement re-executes without
  /// re-planning.
  StatusOr<PreparedQuery> Prepare(const std::string& sql) const;
  /// Prepares an already-parsed query.
  StatusOr<PreparedQuery> Prepare(Query query) const;

  /// One-shot approximate execution (parse + plan + run).
  StatusOr<QueryResult> ExecuteSql(const std::string& sql) const;
  StatusOr<QueryResult> Execute(const Query& query) const;

  // ---- Batched queries --------------------------------------------------
  /// Executes `n` prepared statements (a contiguous span) as one batch.
  /// `results` is resized to n, and results[i] is bit-identical to
  /// queries[i].ExecuteInto. Statements sharing an aggregation grid and
  /// predicate set share coverage, probability and Eq.-29 weighting, and
  /// repeated statements share all of it (see
  /// SegmentedExecutor::ExecuteBatchInto). With warm results, a batch of
  /// scalar statements on one live segment allocates nothing. Every
  /// statement must come from this Db's Prepare (InvalidArgument
  /// otherwise).
  Status ExecuteBatch(const PreparedQuery* queries, size_t n,
                      std::vector<QueryResult>* results) const;

  /// One-shot exact execution against the kept raw table.
  StatusOr<QueryResult> ExecuteExactSql(const std::string& sql) const;
  StatusOr<QueryResult> ExecuteExact(const Query& query) const;

  // ---- Incremental ingestion -------------------------------------------
  /// Folds a new batch (same schema) into every maintained structure: the
  /// batch becomes one or more new sealed segments with fresh bin edges
  /// (existing segments are never modified), the compressed store (when
  /// present) and the kept raw table grow, and prepared queries stay
  /// valid and see the new data.
  Status Append(const Table& batch);

  /// Copy-on-append snapshot: returns a NEW Db whose synopsis shares every
  /// existing sealed segment with this one (sealed segments are immutable)
  /// and additionally seals `batch` as fresh segments — `this` is left
  /// untouched, so in-flight readers of the old Db and plans prepared
  /// against it stay valid indefinitely. Segment seeds and row ranges
  /// match what Append(batch) would have produced, so old and new Db
  /// answer identically over the shared prefix. The kept raw table (when
  /// present) is deep-copied — O(total rows); open with keep_table = false
  /// for cheap snapshots. Unsupported with a compressed store. This is the
  /// building block of serve/ServingDb.
  StatusOr<Db> WithAppended(const Table& batch) const;

  /// Name and type of every column an Append batch must supply, in synopsis
  /// order. Lets callers that parse untyped inputs (e.g. the CSV /append
  /// endpoint) re-type numeric columns before Append's schema check.
  std::vector<std::pair<std::string, DataType>> AppendSchema() const;

  // ---- Segment lifecycle: tiered compaction (storage/compactor.h) -------
  /// Picks the highest-priority eligible compaction under this Db's
  /// CompactionOptions (quarantined rebuildable segments first, then the
  /// worst-error full tier run), or nullopt when nothing is eligible.
  /// Requires the kept raw table to rebuild rows; ranges the table cannot
  /// cover are skipped.
  std::optional<CompactionSpec> PickCompactionSpec() const;

  /// Runs one compaction in place (exclusive writer, like Append): picks
  /// (or takes *spec_in), rebuilds the merged segment from the raw table,
  /// replaces the run, refreshes the executor and forgets the range's
  /// ledger entries. Returns false when nothing was eligible. Prepared
  /// queries stay valid: their plans recompile on next execution
  /// (structure_generation changed). `applied` receives the spec used.
  StatusOr<bool> CompactOnce(CompactionSpec* applied = nullptr,
                             const CompactionSpec* spec_in = nullptr);

  /// Drains eligible compactions (bounded): repeatedly CompactOnce until
  /// nothing is eligible. Returns the number of compactions applied.
  StatusOr<size_t> Compact();

  /// Phase 1 of the serving snapshot-swap path: builds the merged segment
  /// for `spec` from this Db's kept table, entirely off the write path
  /// (const; safe concurrently with reads). The overload taking `rows`
  /// rebuilds from caller-provided rows (e.g. WAL-retained batches) when
  /// this Db has no kept table; `rows` must span exactly
  /// [spec.row_begin, spec.row_end) in order.
  StatusOr<CompactedRun> BuildCompaction(const CompactionSpec& spec) const;
  StatusOr<CompactedRun> BuildCompaction(const CompactionSpec& spec,
                                         const Table& rows) const;

  /// Phase 2: a NEW Db sharing every segment except the compacted run,
  /// which is replaced by `run` — `this` is untouched, so in-flight
  /// readers stay valid (the RCU publish step). NotFound when the spec's
  /// row range no longer aligns to a segment run (e.g. already compacted).
  StatusOr<Db> WithCompactionApplied(const CompactionSpec& spec,
                                     CompactedRun run) const;

  /// This Db's compaction options / error-feedback ledger (ledger is null
  /// unless DbOptions::compact.enabled).
  const CompactionOptions& compaction_options() const {
    return config_.compact;
  }
  const std::shared_ptr<FeedbackLedger>& feedback_ledger() const {
    return config_.exec.ledger;
  }
  /// Segments sitting in merge-eligible runs (the compaction backlog).
  size_t CompactionBacklogSize() const {
    return CompactionBacklog(*set_, config_.compact);
  }

  // ---- Introspection ----------------------------------------------------
  const std::string& name() const { return config_.name; }
  /// Number of sealed segments (1 for a monolithic Db).
  size_t num_segments() const { return set_->NumSegments(); }
  /// Segment i's synopsis / metadata.
  const PairwiseHist& synopsis(size_t i) const { return set_->synopsis(i); }
  const SegmentMeta& segment_meta(size_t i) const { return set_->meta(i); }
  /// The first segment's synopsis (the whole synopsis of a monolithic Db).
  const PairwiseHist& synopsis() const { return set_->synopsis(0); }
  /// The whole segmented synopsis.
  const SynopsisSet& synopses() const { return *set_; }
  /// Total rows across all segments.
  uint64_t total_rows() const { return set_->total_rows(); }
  /// The first segment's engine (every segment has one; see executor()).
  const AqpEngine& engine() const { return exec_->engine(0); }
  /// The cross-segment executor.
  const SegmentedExecutor& executor() const { return *exec_; }
  /// The kept raw table, or nullptr when opened synopsis-only.
  const Table* table() const { return table_.get(); }
  /// The GreedyGD store, or nullptr when built without compression.
  const CompressedTable* compressed() const { return compressed_.get(); }
  size_t StorageBytes() const { return set_->StorageBytes(); }
  /// True when this Db was opened zero-copy from a memory-mapped PWS3
  /// file; mapped_bytes() is the mapping's size (0 for heap-opened Dbs).
  bool mapped() const { return set_->mapped(); }
  size_t mapped_bytes() const { return set_->mapped_bytes(); }

  // ---- Integrity (memory-mapped PWS3 v2 opens) --------------------------
  /// Synchronous checksum sweep of the backing mapping (OK for heap /
  /// legacy opens, which verified eagerly). Failing blocks quarantine
  /// their segments.
  Status VerifyIntegrity() const { return set_->VerifyIntegrity(); }
  /// True when integrity verification has quarantined any segment.
  bool has_quarantine() const { return set_->has_quarantine(); }
  size_t quarantined_segment_count() const {
    return set_->quarantined_segment_count();
  }
  /// Rows a degraded answer would skip.
  uint64_t quarantined_rows() const { return set_->quarantined_rows(); }
  /// Bumped per newly quarantined segment (degraded caches key on it).
  uint64_t quarantine_version() const { return set_->quarantine_version(); }
  uint64_t scrub_errors() const { return set_->scrub_errors(); }
  /// The DbOptions::allow_degraded this Db was opened with.
  bool allow_degraded() const { return config_.allow_degraded; }
  /// The degraded-serving view: a NEW synopsis-only Db sharing every
  /// non-quarantined segment with this one. Fails InvalidArgument when
  /// nothing is quarantined (use `this`) or every segment is quarantined.
  StatusOr<Db> WithoutQuarantined() const;

 private:
  /// The configuration a Db carries beyond its data. Every Db derived from
  /// another (WithAppended, WithoutQuarantined, WithCompactionApplied)
  /// inherits it whole.
  struct Config {
    std::string name;
    /// Build parameters for segments sealed by appends.
    PairwiseHistConfig append_cfg;
    size_t target_segment_rows = 0;
    bool allow_degraded = false;
    CompactionOptions compact;
    /// Executor options; exec.ledger is the error-feedback ledger
    /// (created when compact.enabled, shared across derived Dbs so
    /// feedback survives snapshot swaps).
    SegmentedExecOptions exec;
  };

  Db() = default;
  /// The Config every constructor starts from: `options` resolved once.
  static Config MakeConfig(std::string name, const DbOptions& options);
  /// A Db over `set` with `config` (the shared tail of every constructor
  /// and derivation; the raw table and compressed store are the caller's).
  static Db Assemble(Config config, SynopsisSet set);
  static StatusOr<Db> Build(Table table, const DbOptions& options);
  /// Shared tail of every synopsis-only open path: wraps an already
  /// deserialized/mapped set and recovers the sampling budget, M and α
  /// of appended segments from its newest segment.
  static StatusOr<Db> FromSet(SynopsisSet set, const DbOptions& options);
  /// Checks that `batch`'s columns match the synopsis schema by name/type.
  Status ValidateAppendSchema(const Table& batch) const;
  /// Returns a copy of `batch` with categorical columns re-coded into the
  /// newest segment's fitted dictionaries (batch dictionaries may order
  /// the same strings differently; unseen categories extend the canonical
  /// dictionary append-only).
  StatusOr<Table> CanonicalizeBatch(const Table& batch) const;

  Config config_;
  // unique_ptr members keep component addresses stable across Db moves so
  // prepared queries can hold plain pointers.
  std::unique_ptr<SynopsisSet> set_;
  std::unique_ptr<SegmentedExecutor> exec_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<CompressedTable> compressed_;
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_API_DB_H_
