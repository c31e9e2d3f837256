#include "serve/serving_db.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#include "common/failpoint.h"
#include "storage/mmap_file.h"

namespace pairwisehist {

namespace {

constexpr char kWalFile[] = "wal.log";
constexpr char kCheckpointPrefix[] = "checkpoint-";
// New checkpoints are written in the memory-mappable PWS3 format, so
// Recover reopens them in O(1) via Db::Open's mmap path. Pre-existing
// .pws2 checkpoints (earlier builds) are still recognized and recovered
// from — the next checkpoint rewrites the state as .pws3.
constexpr char kCheckpointSuffix[] = ".pws3";
constexpr char kLegacyCheckpointSuffix[] = ".pws2";

std::string CheckpointPath(const std::string& dir, uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(epoch));
  return dir + "/" + kCheckpointPrefix + buf + kCheckpointSuffix;
}

struct CheckpointFile {
  uint64_t epoch = 0;
  std::string path;
};

/// Checkpoint files present in `dir` (either suffix), ascending by epoch;
/// for the same epoch the .pws3 file sorts after the legacy one, so
/// back() is always the preferred recovery base. Missing dir = empty.
std::vector<CheckpointFile> ListCheckpoints(const std::string& dir) {
  std::vector<CheckpointFile> files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return files;
  const size_t prefix_len = std::strlen(kCheckpointPrefix);
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    size_t suffix_len = 0;
    for (const char* suffix : {kCheckpointSuffix, kLegacyCheckpointSuffix}) {
      const size_t n = std::strlen(suffix);
      if (name.size() > prefix_len + n &&
          name.compare(name.size() - n, n, suffix) == 0) {
        suffix_len = n;
        break;
      }
    }
    if (suffix_len == 0) continue;
    if (name.compare(0, prefix_len, kCheckpointPrefix) != 0) continue;
    const std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
    if (end != digits.c_str() + digits.size()) continue;
    files.push_back({v, dir + "/" + name});
  }
  ::closedir(d);
  std::sort(files.begin(), files.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.epoch != b.epoch ? a.epoch < b.epoch
                                        : a.path < b.path;
            });
  return files;
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::Internal("ServingDb: mkdir '" + dir +
                          "' failed: " + std::strerror(errno));
}

/// The fail-closed answer for a quarantined snapshot. The HTTP layer maps
/// DataLoss mentioning "quarantined" to 503 (retryable once the operator
/// restores the file or the next checkpoint replaces it), not 400.
Status QuarantineStatus(const Db& db) {
  return Status::DataLoss(
      "ServingDb: " + std::to_string(db.quarantined_segment_count()) +
      " segment(s) quarantined by integrity verification (" +
      std::to_string(db.quarantined_rows()) +
      " rows); pass X-Allow-Degraded: 1 to read the surviving segments");
}

}  // namespace

ServingDb::ServingDb(Db db, ServingOptions options, uint64_t start_epoch)
    : options_(options),
      snapshot_(std::make_shared<DbSnapshot>(std::move(db), start_epoch)),
      cache_(options.plan_cache_capacity, options.plan_cache_shards) {
  if (options_.compaction.enabled && options_.compaction.interval_ms > 0) {
    compactor_ = std::thread([this] { CompactorLoop(); });
  }
}

ServingDb::~ServingDb() {
  if (compactor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(co_mu_);
      co_stop_ = true;
    }
    co_cv_.notify_all();
    compactor_.join();
  }
  if (checkpointer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(cp_mu_);
      cp_stop_ = true;
    }
    cp_cv_.notify_all();
    checkpointer_.join();
  }
  // Interval-fsync mode may hold acknowledged-but-unsynced bytes; a clean
  // shutdown should not lose them.
  if (wal_ != nullptr) (void)wal_->Sync();
}

StatusOr<std::unique_ptr<ServingDb>> ServingDb::CreateDurable(
    Db db, ServingOptions options) {
  const std::string& dir = options.durability.dir;
  if (dir.empty()) {
    return Status::InvalidArgument(
        "ServingDb::CreateDurable: durability.dir is empty");
  }
  PH_RETURN_IF_ERROR(EnsureDir(dir));
  if (!ListCheckpoints(dir).empty()) {
    return Status::InvalidArgument(
        "ServingDb::CreateDurable: '" + dir +
        "' already holds serving state; use Recover()");
  }
  // The epoch-0 checkpoint is the recovery base: WAL replay needs a
  // checkpoint to re-append onto. Save writes it atomically.
  PH_RETURN_IF_ERROR(db.Save(CheckpointPath(dir, 0)));

  auto sdb = std::unique_ptr<ServingDb>(
      new ServingDb(std::move(db), options, /*start_epoch=*/0));
  PH_RETURN_IF_ERROR(sdb->InitDurable(RecoveryInfo{}));
  return sdb;
}

StatusOr<std::unique_ptr<ServingDb>> ServingDb::Recover(
    ServingOptions options, const DbOptions& db_options) {
  const std::string& dir = options.durability.dir;
  if (dir.empty()) {
    return Status::InvalidArgument(
        "ServingDb::Recover: durability.dir is empty");
  }
  const std::vector<CheckpointFile> checkpoints = ListCheckpoints(dir);
  if (checkpoints.empty()) {
    return Status::NotFound("ServingDb::Recover: no checkpoint in '" + dir +
                            "'");
  }

  // Candidates newest-first. Every candidate is opened without the
  // background scrubber and verified synchronously — recovery must not
  // adopt a base it has not checked. One that fails to open or verify is
  // recorded and skipped; whether skipping it was LEGAL is decided below
  // by the epoch arithmetic, not here.
  RecoveryInfo info;
  std::optional<Db> db;
  DbOptions open_opts = db_options;
  open_opts.scrub = false;
  for (size_t i = checkpoints.size(); i-- > 0;) {
    const CheckpointFile& cand = checkpoints[i];
    Status st = failpoint::Fire("recover.checkpoint_open").status;
    if (st.ok()) {
      StatusOr<Db> opened = Db::Open(cand.path, open_opts);
      if (opened.ok()) {
        st = opened.value().VerifyIntegrity();
        if (st.ok()) {
          db = std::move(opened).value();
          info.checkpoint_epoch = cand.epoch;
          break;
        }
      } else {
        st = opened.status();
      }
    }
    if (info.corrupt_checkpoint.empty()) info.corrupt_checkpoint = cand.path;
    ++info.checkpoints_skipped;
  }
  if (!db.has_value()) {
    return Status::DataLoss("ServingDb::Recover: no usable checkpoint in '" +
                            dir + "' (newest corrupt: '" +
                            info.corrupt_checkpoint + "')");
  }

  uint64_t epoch = info.checkpoint_epoch;
  const uint64_t checkpoint_total = db->total_rows();
  // Rebuild-row retention for compaction: WAL-covered batches are the only
  // row source a checkpoint-recovered server has (no kept raw table).
  // Skipped records (already inside the checkpoint) get their row ranges
  // computed backward from the checkpoint's total below; applied records
  // know their range at replay time.
  std::vector<Table> skipped_batches;
  std::vector<std::pair<uint64_t, Table>> applied_batches;  // (row_begin, rows)
  const bool retain = options.compaction.enabled;
  // Replay the WAL tail. Records at or below the checkpoint epoch are
  // already inside the checkpoint (a crash between checkpoint-rename and
  // WAL-truncate leaves them behind) and are skipped by epoch.
  PH_ASSIGN_OR_RETURN(
      Wal::ReplayResult replay,
      Wal::Replay(dir + "/" + kWalFile,
                  [&](const uint8_t* data, size_t size) -> Status {
                    PH_ASSIGN_OR_RETURN(WalBatch wb,
                                        DecodeWalBatch(data, size));
                    ++info.wal_records;
                    if (wb.epoch <= info.checkpoint_epoch) {
                      if (retain) skipped_batches.push_back(wb.batch);
                      return Status::OK();
                    }
                    PH_RETURN_IF_ERROR(
                        failpoint::Fire("recovery.replay").status);
                    if (wb.epoch != epoch + 1) {
                      std::string msg =
                          "ServingDb::Recover: WAL epoch gap (have " +
                          std::to_string(epoch) + ", next record " +
                          std::to_string(wb.epoch) + ")";
                      if (info.checkpoints_skipped > 0) {
                        msg += " after skipping corrupt checkpoint '" +
                               info.corrupt_checkpoint + "'";
                      }
                      return Status::DataLoss(msg);
                    }
                    const uint64_t prev_total = db->total_rows();
                    PH_ASSIGN_OR_RETURN(Db next,
                                        db->WithAppended(wb.batch));
                    db = std::move(next);
                    epoch = wb.epoch;
                    ++info.wal_records_applied;
                    info.rows_recovered += wb.batch.NumRows();
                    if (retain) {
                      applied_batches.emplace_back(prev_total, wb.batch);
                    }
                    return Status::OK();
                  }));
  info.tail_truncated = replay.tail_truncated;

  // Epoch floor: the newest checkpoint file — even a corrupt one we
  // skipped — proves its epoch was once acknowledged. If the WAL could
  // not replay back up to it (e.g. the WAL was truncated after that
  // checkpoint landed), the fallback silently lost acknowledged appends;
  // fail and name the file instead.
  if (epoch < checkpoints.back().epoch) {
    return Status::DataLoss(
        "ServingDb::Recover: checkpoint '" + info.corrupt_checkpoint +
        "' is corrupt and the WAL does not cover epochs " +
        std::to_string(epoch + 1) + ".." +
        std::to_string(checkpoints.back().epoch) +
        "; refusing to serve with silent data loss");
  }

  // The base was verified above; continuous scrubbing (when asked for)
  // keeps watching for rot while serving.
  if (db_options.scrub && db_options.scrub_repeat_ms > 0) {
    db->synopses().StartScrub(db_options.scrub_mb_per_s,
                              db_options.scrub_repeat_ms);
  }

  auto sdb = std::unique_ptr<ServingDb>(
      new ServingDb(std::move(*db), options, epoch));
  if (retain) {
    // Skipped records are the TAIL of the checkpoint's rows in epoch
    // order: walk them backward from the checkpoint's total to recover
    // each one's row range, then feed everything forward (oldest-first
    // eviction keeps the newest — most compaction-relevant — batches).
    std::vector<uint64_t> skipped_begin(skipped_batches.size(), 0);
    size_t valid_from = skipped_batches.size();
    uint64_t row_end = checkpoint_total;
    for (size_t i = skipped_batches.size(); i-- > 0;) {
      const uint64_t n = skipped_batches[i].NumRows();
      if (n > row_end) break;  // ranges no longer derivable; stop here
      row_end -= n;
      skipped_begin[i] = row_end;
      valid_from = i;
    }
    for (size_t i = valid_from; i < skipped_batches.size(); ++i) {
      sdb->RetainRows(skipped_begin[i], std::move(skipped_batches[i]));
    }
    for (auto& [row_begin, rows] : applied_batches) {
      sdb->RetainRows(row_begin, std::move(rows));
    }
  }
  PH_RETURN_IF_ERROR(sdb->InitDurable(info));
  return sdb;
}

Status ServingDb::InitDurable(const RecoveryInfo& recovered) {
  recovery_ = recovered;
  last_checkpoint_epoch_.store(recovered.checkpoint_epoch,
                               std::memory_order_relaxed);
  WalOptions wopts;
  wopts.fsync = options_.durability.fsync;
  wopts.fsync_interval_ms = options_.durability.fsync_interval_ms;
  PH_ASSIGN_OR_RETURN(Wal wal,
                      Wal::Open(options_.durability.dir + "/" + kWalFile,
                                wopts));
  {
    // append_mu_: the background compactor (started by the constructor)
    // reads wal_ under this lock in its publish phase.
    std::lock_guard<std::mutex> lock(append_mu_);
    wal_ = std::make_unique<Wal>(std::move(wal));
  }
  if (options_.durability.checkpoint_interval_ms > 0) {
    checkpointer_ = std::thread([this] { CheckpointerLoop(); });
  }
  return Status::OK();
}

void ServingDb::CheckpointerLoop() {
  std::unique_lock<std::mutex> lock(cp_mu_);
  const auto interval =
      std::chrono::milliseconds(options_.durability.checkpoint_interval_ms);
  while (!cp_stop_) {
    cp_cv_.wait_for(lock, interval, [this] { return cp_stop_; });
    if (cp_stop_) return;
    lock.unlock();
    {
      std::lock_guard<std::mutex> append_lock(append_mu_);
      if (appends_since_checkpoint_ >=
              options_.durability.checkpoint_min_appends ||
          compaction_since_checkpoint_) {
        (void)CheckpointLocked();  // failure leaves the WAL authoritative
      }
    }
    lock.lock();
  }
}

std::shared_ptr<DbSnapshot> ServingDb::Load() const {
  return std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
}

std::shared_ptr<const DbSnapshot> ServingDb::snapshot() const {
  return Load();
}

Status ServingDb::Query(const std::string& sql, QueryResult* result,
                        uint64_t* epoch) {
  return Query(sql, ReadOptions{}, result, /*degraded=*/nullptr, epoch);
}

Status ServingDb::Query(const std::string& sql, const ReadOptions& ropts,
                        QueryResult* result, DegradedInfo* degraded,
                        uint64_t* epoch) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  Status statement;
  Status st = Read(&sql, 1, ropts, result, &statement, degraded, epoch);
  return st.ok() ? statement : st;
}

Status ServingDb::QueryBatch(const std::vector<std::string>& sqls,
                             std::vector<QueryResult>* results,
                             std::vector<Status>* statement_status,
                             uint64_t* epoch) {
  return QueryBatch(sqls, ReadOptions{}, results, statement_status,
                    /*degraded=*/nullptr, epoch);
}

Status ServingDb::QueryBatch(const std::vector<std::string>& sqls,
                             const ReadOptions& ropts,
                             std::vector<QueryResult>* results,
                             std::vector<Status>* statement_status,
                             DegradedInfo* degraded, uint64_t* epoch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_statements_.fetch_add(sqls.size(), std::memory_order_relaxed);
  results->clear();
  results->resize(sqls.size());
  statement_status->assign(sqls.size(), Status::OK());
  return Read(sqls.data(), sqls.size(), ropts, results->data(),
              statement_status->data(), degraded, epoch);
}

StatusOr<std::shared_ptr<const Db>> ServingDb::DegradedDb(
    const std::shared_ptr<const DbSnapshot>& snap) {
  const uint64_t qv = snap->db.quarantine_version();
  {
    std::lock_guard<std::mutex> lock(degraded_mu_);
    if (degraded_db_ != nullptr && degraded_src_ == snap &&
        degraded_qversion_ == qv) {
      return degraded_db_;
    }
  }
  // Build outside the lock (a synopsis-only executor rebuild); a racing
  // builder is harmless — last one wins the cache slot.
  PH_ASSIGN_OR_RETURN(Db view, snap->db.WithoutQuarantined());
  auto shared = std::make_shared<const Db>(std::move(view));
  std::lock_guard<std::mutex> lock(degraded_mu_);
  degraded_src_ = snap;
  degraded_db_ = shared;
  degraded_qversion_ = qv;
  return shared;
}

Status ServingDb::Read(const std::string* sqls, size_t n,
                       const ReadOptions& ropts, QueryResult* results,
                       Status* statuses, DegradedInfo* degraded,
                       uint64_t* epoch) {
  // A refused read fails every statement it carries.
  auto refuse = [&](Status st) {
    errors_.fetch_add(n, std::memory_order_relaxed);
    return st;
  };
  std::shared_ptr<const DbSnapshot> snap = Load();
  if (snap == nullptr) {
    return refuse(Status::Internal("ServingDb: no snapshot"));
  }
  if (epoch != nullptr) *epoch = snap->epoch;

  // The quarantine gate: fail closed, or read the degraded view. Degraded
  // reads bypass the plan cache (its plans were prepared against the full
  // snapshot) and prepare each statement fresh: correctness over
  // throughput while the operator deals with the corruption.
  std::shared_ptr<const Db> ddb;
  if (snap->db.has_quarantine()) {
    if (!(ropts.allow_degraded || snap->db.allow_degraded())) {
      return refuse(QuarantineStatus(snap->db));
    }
    StatusOr<std::shared_ptr<const Db>> view = DegradedDb(snap);
    if (!view.ok()) return refuse(view.status());
    ddb = std::move(view).value();
    degraded_reads_.fetch_add(n, std::memory_order_relaxed);
    if (degraded != nullptr) {
      degraded->degraded = true;
      degraded->rows_skipped = snap->db.quarantined_rows();
      degraded->segments_skipped =
          static_cast<uint32_t>(snap->db.quarantined_segment_count());
    }
  }

  // Each statement's plan, kept alive for the read; plans[k] answers
  // statement stmt[k]. A statement that fails to prepare gets its own
  // error while the rest still execute.
  PoolLease<ReadScratch> lease(&read_pool_);
  ReadScratch& scratch = *lease;
  size_t failed = 0;
  for (size_t i = 0; i < n; ++i) {
    StatusOr<std::shared_ptr<const PreparedQuery>> pq =
        [&]() -> StatusOr<std::shared_ptr<const PreparedQuery>> {
      if (ddb != nullptr) {
        PH_ASSIGN_OR_RETURN(PreparedQuery fresh, ddb->Prepare(sqls[i]));
        return std::make_shared<const PreparedQuery>(std::move(fresh));
      }
      bool hit = false;
      auto cached = cache_.Get(snap, sqls[i], &hit);
      (hit ? cache_hits_ : cache_misses_)
          .fetch_add(1, std::memory_order_relaxed);
      return cached;
    }();
    if (!pq.ok()) {
      statuses[i] = pq.status();
      ++failed;
      continue;
    }
    scratch.plans.push_back(std::move(pq).value());
    scratch.stmt.push_back(i);
  }
  const Db& db = ddb != nullptr ? *ddb : snap->db;
  Status st = db.executor().ExecuteBatchInto(
      scratch.plans.size(),
      [&scratch](size_t k) { return &scratch.plans[k]->plan(); },
      [&](size_t k) { return &results[scratch.stmt[k]]; });
  if (!st.ok()) {
    for (size_t i : scratch.stmt) statuses[i] = st;
    failed += scratch.stmt.size();
  }
  // Pooled scratch must not pin the plans (and through them the snapshot).
  scratch.plans.clear();
  scratch.stmt.clear();
  errors_.fetch_add(failed, std::memory_order_relaxed);
  return Status::OK();
}

Status ServingDb::Append(const Table& batch) {
  std::lock_guard<std::mutex> lock(append_mu_);
  std::shared_ptr<DbSnapshot> cur = Load();
  if (cur == nullptr) return Status::Internal("ServingDb: no snapshot");
  PH_RETURN_IF_ERROR(failpoint::Fire("serve.append.build").status);
  // The expensive part — canonicalization + synopsis build for the new
  // segments — runs here with no lock but append_mu_ held; readers keep
  // serving the current snapshot throughout.
  PH_ASSIGN_OR_RETURN(Db next, cur->db.WithAppended(batch));
  const uint64_t next_epoch = cur->epoch + 1;
  if (wal_ != nullptr) {
    // Durability point: once Append() returns, the record is on disk (per
    // the fsync policy). A crash before this leaves no trace; a crash
    // after it re-creates the batch on recovery even if the client never
    // saw the ack (acknowledged ⊆ recovered).
    PH_RETURN_IF_ERROR(wal_->Append(EncodeWalBatch(next_epoch, batch)));
    PH_RETURN_IF_ERROR(failpoint::Fire("wal.append.acked").status);
  }
  auto fresh = std::make_shared<DbSnapshot>(std::move(next), next_epoch,
                                            cur->compaction_seq);
  std::atomic_store_explicit(&snapshot_, fresh, std::memory_order_release);
  appends_.fetch_add(1, std::memory_order_relaxed);
  ++appends_since_checkpoint_;
  if (options_.compaction.enabled && cur->db.table() == nullptr) {
    // No kept raw table (checkpoint-recovered serving): keep the batch's
    // rows in the bounded retention buffer so its segments can still be
    // re-fitted by compaction.
    RetainRows(cur->db.total_rows(), batch);
  }
  return Status::OK();
}

Status ServingDb::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::Unsupported("ServingDb::Checkpoint: not durable");
  }
  std::lock_guard<std::mutex> lock(append_mu_);
  return CheckpointLocked();
}

Status ServingDb::CheckpointLocked() {
  std::shared_ptr<DbSnapshot> cur = Load();
  if (cur == nullptr) return Status::Internal("ServingDb: no snapshot");
  const std::string& dir = options_.durability.dir;
  const std::string path = CheckpointPath(dir, cur->epoch);
  const std::string tmp = path + ".tmp";

  // Db::Save's atomic write, split so that "checkpoint.rename" fires
  // between the durable tmp file and its rename.
  PH_RETURN_IF_ERROR(failpoint::Fire("checkpoint.save").status);
  const std::vector<uint8_t> image = cur->db.synopses().SerializeMapped();
  PH_RETURN_IF_ERROR(WriteFileDurable(tmp, image.data(), image.size()));
  PH_RETURN_IF_ERROR(failpoint::Fire("checkpoint.rename").status);
  PH_RETURN_IF_ERROR(RenameDurable(tmp, path));
  // The checkpoint is now the recovery base. A crash before the truncate
  // below is harmless: replay skips WAL records with epoch <= cur->epoch.
  PH_RETURN_IF_ERROR(failpoint::Fire("checkpoint.truncate_wal").status);
  PH_RETURN_IF_ERROR(wal_->Truncate());
  for (const CheckpointFile& old : ListCheckpoints(dir)) {
    // Also removes a legacy .pws2 file of the current epoch: this fresh
    // .pws3 checkpoint of the same state supersedes it.
    if (old.epoch < cur->epoch ||
        (old.epoch == cur->epoch && old.path != path)) {
      ::unlink(old.path.c_str());
    }
  }
  appends_since_checkpoint_ = 0;
  compaction_since_checkpoint_ = false;
  last_checkpoint_epoch_.store(cur->epoch, std::memory_order_relaxed);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Segment lifecycle: tiered compaction through the snapshot swap

Status ServingDb::CompactNow(bool* did) {
  if (did != nullptr) *did = false;
  std::shared_ptr<const DbSnapshot> snap = Load();
  if (snap == nullptr) return Status::Internal("ServingDb: no snapshot");
  const Db& db = snap->db;
  const CompactionOptions& copts = options_.compaction;
  auto rebuildable = [&](uint64_t rb, uint64_t re) {
    if (rb >= re) return false;
    if (db.table() != nullptr && re <= db.table()->NumRows()) return true;
    return CanStitchRetained(rb, re);
  };
  std::optional<CompactionSpec> spec = PickCompaction(
      db.synopses(), copts, db.feedback_ledger().get(), rebuildable);
  if (!spec.has_value()) return Status::OK();

  Status st = [&]() -> Status {
    // Phase 1 (no locks): build the merged segment. Readers and appends
    // proceed throughout; `snap` pins the source segments.
    PH_RETURN_IF_ERROR(failpoint::Fire("compact.build").status);
    CompactedRun run;
    if (db.table() != nullptr && spec->row_end <= db.table()->NumRows()) {
      PH_ASSIGN_OR_RETURN(run, db.BuildCompaction(*spec));
    } else {
      PH_ASSIGN_OR_RETURN(Table rows,
                          StitchRetained(spec->row_begin, spec->row_end));
      PH_ASSIGN_OR_RETURN(run, db.BuildCompaction(*spec, rows));
    }
    const uint64_t bytes = run.synopsis->StorageBytes();

    // Phase 2 (append lock): re-locate the run by row range in the
    // CURRENT snapshot — appends since phase 1 only added segments past
    // the end, so the spec still applies — and publish atomically. The
    // epoch does not change (no rows changed, no WAL record: the recovery
    // epoch chain stays gapless); compaction_seq does.
    std::lock_guard<std::mutex> lock(append_mu_);
    std::shared_ptr<DbSnapshot> cur = Load();
    if (cur == nullptr) return Status::Internal("ServingDb: no snapshot");
    PH_RETURN_IF_ERROR(failpoint::Fire("compact.publish").status);
    StatusOr<Db> next = cur->db.WithCompactionApplied(*spec, std::move(run));
    if (!next.ok()) {
      // NotFound: the run no longer aligns (a racing explicit CompactNow
      // already replaced it). Nothing to do — not an error.
      if (next.status().code() == StatusCode::kNotFound) return Status::OK();
      return next.status();
    }
    const size_t before = cur->db.num_segments();
    const size_t after = next.value().num_segments();
    const uint32_t merged = static_cast<uint32_t>(before - after + 1);
    auto fresh = std::make_shared<DbSnapshot>(std::move(next).value(),
                                              cur->epoch,
                                              cur->compaction_seq + 1);
    std::atomic_store_explicit(&snapshot_, fresh,
                               std::memory_order_release);
    const uint64_t rows_rewritten = spec->row_end - spec->row_begin;
    compaction_runs_.fetch_add(1, std::memory_order_relaxed);
    compaction_segments_merged_.fetch_add(merged, std::memory_order_relaxed);
    compaction_rows_rewritten_.fetch_add(rows_rewritten,
                                         std::memory_order_relaxed);
    compaction_bytes_rewritten_.fetch_add(bytes, std::memory_order_relaxed);
    if (spec->quarantine_drain) {
      quarantine_drained_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> ev(events_mu_);
      events_.push_back({fresh->compaction_seq, fresh->epoch, *spec, merged,
                         rows_rewritten, bytes});
    }
    if (did != nullptr) *did = true;
    compaction_since_checkpoint_ = true;
    if (wal_ != nullptr && copts.checkpoint_after) {
      // Make the compacted structure durable promptly. A crash before (or
      // during) this checkpoint recovers the PRE-compaction segment set
      // from the previous checkpoint + WAL — consistent either way, never
      // a mix.
      PH_RETURN_IF_ERROR(failpoint::Fire("compact.checkpoint").status);
      PH_RETURN_IF_ERROR(CheckpointLocked());
    }
    return Status::OK();
  }();
  if (!st.ok()) compaction_errors_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

void ServingDb::CompactorLoop() {
  std::unique_lock<std::mutex> lock(co_mu_);
  const auto interval =
      std::chrono::milliseconds(options_.compaction.interval_ms);
  while (!co_stop_) {
    co_cv_.wait_for(lock, interval, [this] { return co_stop_; });
    if (co_stop_) return;
    lock.unlock();
    // Drain: a merge can cascade into a higher tier becoming eligible.
    bool did = true;
    for (int i = 0; i < 8 && did; ++i) {
      if (!CompactNow(&did).ok()) break;  // already counted in errors
    }
    lock.lock();
  }
}

std::vector<ServingDb::CompactionEvent> ServingDb::CompactionLog() const {
  std::lock_guard<std::mutex> lock(events_mu_);
  return events_;
}

void ServingDb::RetainRows(uint64_t row_begin, Table rows) {
  const size_t cap = static_cast<size_t>(options_.compaction.retain_rows_mb)
                     << 20;
  if (cap == 0) return;
  const size_t bytes = rows.RawSizeBytes();
  const uint64_t row_end = row_begin + rows.NumRows();
  std::lock_guard<std::mutex> lock(retained_mu_);
  retained_.push_back({row_begin, row_end, std::move(rows)});
  retained_bytes_ += bytes;
  while (retained_bytes_ > cap && !retained_.empty()) {
    retained_bytes_ -= retained_.front().rows.RawSizeBytes();
    retained_.pop_front();
  }
}

bool ServingDb::CanStitchRetained(uint64_t begin, uint64_t end) const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  uint64_t cursor = begin;
  for (const RetainedBatch& b : retained_) {
    if (cursor >= end) break;
    if (b.row_end <= cursor) continue;
    if (b.row_begin > cursor) return false;  // gap (evicted batch)
    cursor = std::min(end, b.row_end);
  }
  return cursor >= end;
}

StatusOr<Table> ServingDb::StitchRetained(uint64_t begin,
                                          uint64_t end) const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  std::optional<Table> out;
  uint64_t cursor = begin;
  for (const RetainedBatch& b : retained_) {
    if (cursor >= end) break;
    if (b.row_end <= cursor) continue;
    if (b.row_begin > cursor) break;
    const uint64_t take_end = std::min(end, b.row_end);
    Table slice = b.rows.Slice(static_cast<size_t>(cursor - b.row_begin),
                               static_cast<size_t>(take_end - b.row_begin));
    if (!out.has_value()) {
      out = std::move(slice);
    } else {
      PH_RETURN_IF_ERROR(AppendTableRows(&out.value(), slice));
    }
    cursor = take_end;
  }
  if (!out.has_value() || cursor < end) {
    return Status::NotFound(
        "ServingDb: retained rows do not cover [" + std::to_string(begin) +
        ", " + std::to_string(end) + ")");
  }
  return std::move(out).value();
}

ServingStats ServingDb::Stats() const {
  ServingStats s;
  std::shared_ptr<const DbSnapshot> snap = Load();
  if (snap != nullptr) {
    s.epoch = snap->epoch;
    s.segments = snap->db.num_segments();
    s.rows = snap->db.total_rows();
    s.mapped_bytes = snap->db.mapped_bytes();
    s.quarantined_segments = snap->db.quarantined_segment_count();
    s.quarantined_rows = snap->db.quarantined_rows();
    s.scrub_errors = snap->db.scrub_errors();
  }
  s.degraded_reads = degraded_reads_.load(std::memory_order_relaxed);
  s.checkpoints_skipped = recovery_.checkpoints_skipped;
  s.corrupt_checkpoint = recovery_.corrupt_checkpoint;
  s.compaction_enabled = options_.compaction.enabled;
  if (snap != nullptr) {
    s.compaction_seq = snap->compaction_seq;
    s.compaction_backlog =
        CompactionBacklog(snap->db.synopses(), options_.compaction);
  }
  s.compaction_runs = compaction_runs_.load(std::memory_order_relaxed);
  s.compaction_segments_merged =
      compaction_segments_merged_.load(std::memory_order_relaxed);
  s.compaction_rows_rewritten =
      compaction_rows_rewritten_.load(std::memory_order_relaxed);
  s.compaction_bytes_rewritten =
      compaction_bytes_rewritten_.load(std::memory_order_relaxed);
  s.compaction_errors = compaction_errors_.load(std::memory_order_relaxed);
  s.quarantine_drained = quarantine_drained_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(retained_mu_);
    s.retained_bytes = retained_bytes_;
  }
  s.queries = queries_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batch_statements = batch_statements_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.cache_entries = cache_.size();
  s.appends = appends_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  if (wal_ != nullptr) {
    s.durable = true;
    s.wal_records = wal_->records_written();
    s.wal_bytes = wal_->bytes_written();
    s.wal_fsyncs = wal_->fsyncs();
    s.last_checkpoint_epoch =
        last_checkpoint_epoch_.load(std::memory_order_relaxed);
    s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    s.recovered_records = recovery_.wal_records_applied;
    s.recovered_rows = recovery_.rows_recovered;
    s.recovery_tail_truncated = recovery_.tail_truncated;
  }
  return s;
}

StatusOr<Db> ServingDb::TakeDb() {
  if (wal_ != nullptr) {
    return Status::Unsupported(
        "ServingDb::TakeDb: durable serving owns its on-disk state; "
        "checkpoint and Recover() instead");
  }
  std::lock_guard<std::mutex> lock(append_mu_);
  cache_.Clear();
  std::shared_ptr<DbSnapshot> cur =
      std::atomic_exchange(&snapshot_, std::shared_ptr<DbSnapshot>());
  if (cur == nullptr) return Status::Internal("ServingDb: already taken");
  if (cur.use_count() != 1) {
    std::atomic_store(&snapshot_, cur);  // put it back; still serving
    return Status::Unsupported(
        "ServingDb::TakeDb: snapshot still referenced; stop traffic first");
  }
  return std::move(cur->db);
}

}  // namespace pairwisehist
