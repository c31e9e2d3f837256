#include "api/db.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "datagen/datasets.h"
#include "gd/preprocess.h"
#include "query/exact.h"
#include "query/sql_parser.h"
#include "storage/csv.h"
#include "storage/mmap_file.h"
#include "storage/segment.h"

namespace pairwisehist {

// ---------------------------------------------------------------------------
// PreparedQuery

StatusOr<QueryResult> PreparedQuery::Execute() const {
  if (exec_ == nullptr || !plan_.valid()) {
    return Status::Internal("PreparedQuery used before Db::Prepare");
  }
  return exec_->Execute(plan_);
}

Status PreparedQuery::ExecuteInto(QueryResult* result) const {
  if (exec_ == nullptr || !plan_.valid()) {
    return Status::Internal("PreparedQuery used before Db::Prepare");
  }
  return exec_->ExecuteInto(plan_, result);
}

StatusOr<QueryResult> PreparedQuery::ExecuteExact() const {
  if (table_ == nullptr) {
    return Status::Unsupported(
        "exact execution requires the raw table (Db was opened "
        "synopsis-only or with keep_table = false)");
  }
  return pairwisehist::ExecuteExact(*table_, query());
}

// ---------------------------------------------------------------------------
// Opening

Db::Config Db::MakeConfig(std::string name, const DbOptions& options) {
  Config config;
  config.name = std::move(name);
  config.append_cfg = options.synopsis;
  if (options.build_threads != 0) {
    config.append_cfg.build_threads = options.build_threads;
  }
  config.target_segment_rows = options.target_segment_rows;
  config.allow_degraded = options.allow_degraded;
  config.compact = options.compact;
  config.exec.engine = options.engine;
  config.exec.exec_threads = options.exec_threads;
  config.exec.prune = options.prune_segments;
  if (options.compact.enabled) {
    config.exec.ledger = std::make_shared<FeedbackLedger>();
  }
  return config;
}

Db Db::Assemble(Config config, SynopsisSet set) {
  Db db;
  db.config_ = std::move(config);
  db.set_ = std::make_unique<SynopsisSet>(std::move(set));
  db.exec_ = std::make_unique<SegmentedExecutor>(db.set_.get(),
                                                 db.config_.exec);
  return db;
}

StatusOr<Db> Db::Build(Table table, const DbOptions& options) {
  Config config = MakeConfig(table.name(), options);
  const PairwiseHistConfig& cfg = config.append_cfg;

  std::unique_ptr<CompressedTable> compressed;
  if (options.compress) {
    PH_ASSIGN_OR_RETURN(PreprocessedTable pre, Preprocess(table));
    PH_ASSIGN_OR_RETURN(CompressedTable gd,
                        CompressedTable::Compress(pre, options.gd));
    compressed = std::make_unique<CompressedTable>(std::move(gd));
  }

  PH_ASSIGN_OR_RETURN(
      SegmentedTable st,
      SegmentedTable::Partition(&table, options.target_segment_rows));
  SynopsisSet set;
  if (options.compress && st.NumSegments() == 1) {
    // Monolithic compressed build: seed the bin edges with the GreedyGD
    // bases (the paper's compression ↔ AQP integration).
    PH_ASSIGN_OR_RETURN(PairwiseHist ph,
                        PairwiseHist::BuildFromCompressed(*compressed, cfg));
    SegmentMeta meta;
    meta.row_begin = 0;
    meta.row_end = table.NumRows();
    meta.ranges = ComputeColumnRanges(table, 0, table.NumRows());
    set = SynopsisSet::FromSingle(std::move(ph), std::move(meta));
  } else {
    PH_ASSIGN_OR_RETURN(set, SynopsisSet::Build(st, cfg, cfg.build_threads));
  }

  Db db = Assemble(std::move(config), std::move(set));
  db.compressed_ = std::move(compressed);
  if (options.keep_table) {
    db.table_ = std::make_unique<Table>(std::move(table));
  }
  return db;
}

StatusOr<Db> Db::FromTable(Table table, DbOptions options) {
  return Build(std::move(table), options);
}

StatusOr<Db> Db::FromCsv(const std::string& path, DbOptions options) {
  PH_ASSIGN_OR_RETURN(Table table, ReadCsv(path));
  return Build(std::move(table), options);
}

StatusOr<Db> Db::FromGenerator(const std::string& name, size_t rows,
                               uint64_t seed, DbOptions options) {
  PH_ASSIGN_OR_RETURN(Table table, MakeDataset(name, rows, seed));
  return Build(std::move(table), options);
}

StatusOr<Db> Db::FromSet(SynopsisSet set, const DbOptions& options) {
  Config config = MakeConfig("synopsis", options);
  // Recover the append build parameters the file records from its newest
  // segment, so post-Open appends seal segments consistent with the
  // original build (the original DbOptions are not serialized). When the
  // segment sampled every row we cannot tell "sample everything" from
  // "cap above N"; recover as 0 (sample everything), which only ever
  // increases accuracy. M is recovered as a fraction of Ns so it keeps
  // scaling with batch size; the sampling seed is not recorded and comes
  // from `options`.
  const PairwiseHist& newest = set.synopsis(set.NumSegments() - 1);
  PairwiseHistConfig& cfg = config.append_cfg;
  cfg.sample_size =
      newest.sample_rows() == newest.total_rows() ? 0 : newest.sample_rows();
  cfg.min_points_override = 0;
  cfg.min_points_fraction =
      newest.sample_rows() > 0
          ? static_cast<double>(newest.min_points()) / newest.sample_rows()
          : 0.01;
  cfg.alpha = newest.alpha();
  return Assemble(std::move(config), std::move(set));
}

StatusOr<Db> Db::FromBlob(const std::vector<uint8_t>& blob,
                          const DbOptions& options) {
  PH_ASSIGN_OR_RETURN(SynopsisSet set, SynopsisSet::Deserialize(blob));
  return FromSet(std::move(set), options);
}

StatusOr<Db> Db::Open(const std::string& path, const DbOptions& options) {
  OpenMode mode = options.open_mode;
  if (mode == OpenMode::kAuto) {
    const char* env = std::getenv("PWH_OPEN");
    if (env != nullptr && std::string(env) == "heap") {
      mode = OpenMode::kHeap;
    } else {
      // "mmap" and unset both take the zero-copy path: PWS3 files map,
      // legacy files heap-convert inside OpenMapped.
      mode = OpenMode::kMmap;
    }
  }
  if (mode == OpenMode::kMmap) {
    PH_ASSIGN_OR_RETURN(SynopsisSet set, SynopsisSet::OpenMapped(path));
    // Mapped PWS3 v2 opens skip eager verification (the open stays
    // O(metadata)); the background scrubber sweeps the payload blocks
    // instead (Db::VerifyIntegrity sweeps them on demand).
    if (options.scrub) {
      set.StartScrub(options.scrub_mb_per_s, options.scrub_repeat_ms);
    }
    return FromSet(std::move(set), options);
  }
  PH_ASSIGN_OR_RETURN(SynopsisSet set, SynopsisSet::OpenHeap(path));
  return FromSet(std::move(set), options);
}

Status Db::Save(const std::string& path, SaveFormat format) const {
  const std::vector<uint8_t> image = format == SaveFormat::kPws3
                                         ? set_->SerializeMapped()
                                         : set_->Serialize();
  return WriteFileAtomic(path, image.data(), image.size());
}

// ---------------------------------------------------------------------------
// Queries

StatusOr<PreparedQuery> Db::Prepare(const std::string& sql) const {
  PH_ASSIGN_OR_RETURN(Query query, ParseSql(sql));
  return Prepare(std::move(query));
}

StatusOr<PreparedQuery> Db::Prepare(Query query) const {
  PreparedQuery pq;
  pq.table_ = table_.get();
  pq.exec_ = exec_.get();
  PH_ASSIGN_OR_RETURN(pq.plan_, exec_->Prepare(std::move(query)));
  return pq;
}

StatusOr<QueryResult> Db::ExecuteSql(const std::string& sql) const {
  PH_ASSIGN_OR_RETURN(PreparedQuery pq, Prepare(sql));
  return pq.Execute();
}

// ---------------------------------------------------------------------------
// Batched queries

Status Db::ExecuteBatch(const PreparedQuery* queries, size_t n,
                        std::vector<QueryResult>* results) const {
  // A plan compiled against another Db's segments would run on this Db's
  // engines and answer wrongly, with no error.
  for (size_t i = 0; i < n; ++i) {
    if (queries[i].exec_ != exec_.get()) {
      return Status::InvalidArgument("ExecuteBatch: statement " +
                                     std::to_string(i) +
                                     " was not prepared by this Db");
    }
  }
  results->resize(n);
  return exec_->ExecuteBatchInto(
      n, [queries](size_t i) { return &queries[i].plan(); },
      [results](size_t i) { return &(*results)[i]; });
}

StatusOr<QueryResult> Db::Execute(const Query& query) const {
  PH_ASSIGN_OR_RETURN(PreparedQuery pq, Prepare(query));
  return pq.Execute();
}

StatusOr<QueryResult> Db::ExecuteExactSql(const std::string& sql) const {
  PH_ASSIGN_OR_RETURN(Query query, ParseSql(sql));
  return ExecuteExact(query);
}

StatusOr<QueryResult> Db::ExecuteExact(const Query& query) const {
  if (table_ == nullptr) {
    return Status::Unsupported(
        "exact execution requires the raw table (Db was opened "
        "synopsis-only or with keep_table = false)");
  }
  return pairwisehist::ExecuteExact(*table_, query);
}

// ---------------------------------------------------------------------------
// Incremental ingestion

StatusOr<Table> Db::CanonicalizeBatch(const Table& batch) const {
  // Re-code against the NEWEST segment's transforms: its dictionaries are
  // the longest prefix-consistent (canonical) ones, and unseen categories
  // extend them append-only so every older segment's codes stay valid.
  const PairwiseHist& newest = set_->synopsis(set_->NumSegments() - 1);
  Table out(batch.name());
  for (size_t c = 0; c < batch.NumColumns(); ++c) {
    const Column& src = batch.column(c);
    const ColumnTransform& tr = newest.transform(c);
    if (src.type() != DataType::kCategorical) {
      out.AddColumn(src);
      continue;
    }
    // Re-code through the fitted dictionary: the batch may have interned
    // the same category strings in a different order (e.g. a CSV where
    // 'fault' appears before 'ok'), and the synopsis/GD transforms map
    // *codes*, not strings. Categories unseen at fit time extend the
    // canonical dictionary, and the sealed segment fits them fresh.
    Column col(src.name(), DataType::kCategorical, src.decimals());
    col.SetDictionary(tr.dictionary);
    for (size_t r = 0; r < src.size(); ++r) {
      if (src.IsNull(r)) {
        col.AppendNull();
        continue;
      }
      PH_ASSIGN_OR_RETURN(
          std::string cat,
          src.CategoryName(static_cast<int64_t>(src.Value(r))));
      col.AppendCategory(cat);
    }
    out.AddColumn(std::move(col));
  }
  return out;
}

std::vector<std::pair<std::string, DataType>> Db::AppendSchema() const {
  const PairwiseHist& newest = set_->synopsis(set_->NumSegments() - 1);
  std::vector<std::pair<std::string, DataType>> schema;
  schema.reserve(newest.num_columns());
  for (size_t c = 0; c < newest.num_columns(); ++c) {
    const ColumnTransform& tr = newest.transform(c);
    schema.emplace_back(tr.name, tr.type);
  }
  return schema;
}

Status Db::ValidateAppendSchema(const Table& batch) const {
  const PairwiseHist& newest = set_->synopsis(set_->NumSegments() - 1);
  const size_t d = newest.num_columns();
  if (batch.NumColumns() != d) {
    return Status::InvalidArgument(
        "Append: batch has " + std::to_string(batch.NumColumns()) +
        " columns, synopsis has " + std::to_string(d));
  }
  for (size_t c = 0; c < d; ++c) {
    const Column& col = batch.column(c);
    const ColumnTransform& tr = newest.transform(c);
    if (col.name() != tr.name || col.type() != tr.type) {
      return Status::InvalidArgument(
          "Append: column " + std::to_string(c) + " is '" + col.name() +
          "' (" + DataTypeName(col.type()) + "), synopsis expects '" +
          tr.name + "' (" + DataTypeName(tr.type) + ")");
    }
  }
  return Status::OK();
}

Status Db::Append(const Table& batch) {
  // Validate the whole schema up front, then canonicalize, so that by the
  // time any component is mutated the batch is known-applicable: a late
  // failure would leave synopsis, compressed store and raw table counting
  // different rows with no way to roll back.
  PH_RETURN_IF_ERROR(ValidateAppendSchema(batch));
  if (batch.NumRows() == 0) return Status::OK();
  PH_ASSIGN_OR_RETURN(Table canonical, CanonicalizeBatch(batch));

  // Seal the batch as fresh segments with newly fitted bin edges;
  // SealSegments is all-or-nothing, so a build failure leaves every
  // maintained structure untouched.
  PH_ASSIGN_OR_RETURN(
      SegmentedTable st,
      SegmentedTable::Partition(&canonical, config_.target_segment_rows));
  PH_RETURN_IF_ERROR(set_->SealSegments(st, config_.append_cfg));
  PH_RETURN_IF_ERROR(exec_->Refresh());

  if (compressed_ != nullptr) {
    PH_ASSIGN_OR_RETURN(PreprocessedTable pre,
                        ApplyTransforms(canonical, compressed_->transforms()));
    PH_RETURN_IF_ERROR(compressed_->Append(pre));
  }
  if (table_ != nullptr) {
    PH_RETURN_IF_ERROR(AppendTableRows(table_.get(), canonical));
  }
  if (config_.compact.enabled) {
    // Drain eligible compactions right away (Append is already the
    // exclusive writer). Bounded: one Append seals O(1) segments, so at
    // most a few merges cascade; the cap only guards pathological configs.
    for (int step = 0; step < 8; ++step) {
      PH_ASSIGN_OR_RETURN(bool did, CompactOnce());
      if (!did) break;
    }
  }
  return Status::OK();
}

StatusOr<Db> Db::WithAppended(const Table& batch) const {
  if (compressed_ != nullptr) {
    return Status::Unsupported(
        "WithAppended: the compressed store is single-owner; use Append");
  }
  PH_RETURN_IF_ERROR(ValidateAppendSchema(batch));

  if (batch.NumRows() == 0) {
    Db out = Assemble(config_, set_->Share());
    if (table_ != nullptr) out.table_ = std::make_unique<Table>(*table_);
    return out;
  }
  PH_ASSIGN_OR_RETURN(Table canonical, CanonicalizeBatch(batch));
  PH_ASSIGN_OR_RETURN(
      SegmentedTable st,
      SegmentedTable::Partition(&canonical, config_.target_segment_rows));
  PH_ASSIGN_OR_RETURN(SynopsisSet set,
                      set_->WithSealed(st, config_.append_cfg));
  Db out = Assemble(config_, std::move(set));
  if (table_ != nullptr) {
    out.table_ = std::make_unique<Table>(*table_);
    PH_RETURN_IF_ERROR(AppendTableRows(out.table_.get(), canonical));
  }
  return out;
}

StatusOr<Db> Db::WithoutQuarantined() const {
  if (!has_quarantine()) {
    return Status::InvalidArgument(
        "WithoutQuarantined: no segment is quarantined");
  }
  SynopsisSet healthy = set_->ShareHealthy();
  if (healthy.NumSegments() == 0) {
    return Status::DataLoss(
        "every segment is quarantined; nothing left to serve");
  }
  return Assemble(config_, std::move(healthy));
}

// ---------------------------------------------------------------------------
// Segment lifecycle: tiered compaction + error-driven refit

std::optional<CompactionSpec> Db::PickCompactionSpec() const {
  if (!config_.compact.enabled) return std::nullopt;
  auto rebuildable = [this](uint64_t rb, uint64_t re) {
    return table_ != nullptr && rb < re && re <= table_->NumRows();
  };
  return PickCompaction(*set_, config_.compact, feedback_ledger().get(),
                        rebuildable);
}

StatusOr<CompactedRun> Db::BuildCompaction(const CompactionSpec& spec) const {
  if (table_ == nullptr) {
    return Status::Unsupported(
        "BuildCompaction requires the kept raw table (or pass the rows "
        "explicitly)");
  }
  if (spec.row_begin >= spec.row_end ||
      spec.row_end > table_->NumRows()) {
    return Status::InvalidArgument(
        "BuildCompaction: rows [" + std::to_string(spec.row_begin) + ", " +
        std::to_string(spec.row_end) + ") outside the kept table");
  }
  Table rows = table_->Slice(spec.row_begin, spec.row_end);
  return BuildCompaction(spec, rows);
}

StatusOr<CompactedRun> Db::BuildCompaction(const CompactionSpec& spec,
                                           const Table& rows) const {
  if (spec.row_begin >= spec.row_end ||
      rows.NumRows() != spec.row_end - spec.row_begin) {
    return Status::InvalidArgument(
        "BuildCompaction: got " + std::to_string(rows.NumRows()) +
        " rows for range [" + std::to_string(spec.row_begin) + ", " +
        std::to_string(spec.row_end) + ")");
  }
  // Re-fit with fresh bin edges over the whole merged range. The seed is a
  // pure function of (build seed, row range) so replaying a recorded spec
  // rebuilds a bit-identical synopsis; the error-driven budget boost was
  // captured in the spec at pick time for the same reason.
  PairwiseHistConfig cfg = config_.append_cfg;
  cfg.min_points_override = 0;
  const double boost = std::max(1.0, spec.budget_boost);
  cfg.min_points_fraction =
      std::max(config_.compact.min_points_floor,
               cfg.min_points_fraction / boost);
  cfg.seed = CompactionSeed(cfg.seed, spec.row_begin, spec.row_end);
  PH_ASSIGN_OR_RETURN(PairwiseHist ph,
                      PairwiseHist::BuildFromTable(rows, cfg));
  CompactedRun run;
  run.synopsis = std::make_shared<PairwiseHist>(std::move(ph));
  run.meta.row_begin = spec.row_begin;
  run.meta.row_end = spec.row_end;
  run.meta.ranges = ComputeColumnRanges(rows, 0, rows.NumRows());
  return run;
}

StatusOr<bool> Db::CompactOnce(CompactionSpec* applied,
                               const CompactionSpec* spec_in) {
  std::optional<CompactionSpec> spec;
  if (spec_in != nullptr) {
    spec = *spec_in;
  } else {
    spec = PickCompactionSpec();
  }
  if (!spec.has_value()) return false;
  PH_ASSIGN_OR_RETURN(auto run_idx,
                      set_->FindRun(spec->row_begin, spec->row_end));
  PH_ASSIGN_OR_RETURN(CompactedRun run, BuildCompaction(*spec));
  PH_RETURN_IF_ERROR(set_->ReplaceRun(run_idx.first, run_idx.second,
                                      std::move(run.synopsis),
                                      std::move(run.meta)));
  PH_RETURN_IF_ERROR(exec_->Refresh());
  if (feedback_ledger() != nullptr) {
    feedback_ledger()->Forget(spec->row_begin, spec->row_end);
  }
  if (applied != nullptr) *applied = *spec;
  return true;
}

StatusOr<size_t> Db::Compact() {
  size_t applied = 0;
  // The drain converges: every step strictly reduces the segment count,
  // so the cap is only a guard against pathological configurations.
  for (int step = 0; step < 64; ++step) {
    PH_ASSIGN_OR_RETURN(bool did, CompactOnce());
    if (!did) break;
    ++applied;
  }
  return applied;
}

StatusOr<Db> Db::WithCompactionApplied(const CompactionSpec& spec,
                                       CompactedRun run) const {
  PH_ASSIGN_OR_RETURN(auto run_idx,
                      set_->FindRun(spec.row_begin, spec.row_end));
  PH_ASSIGN_OR_RETURN(
      SynopsisSet set,
      set_->WithReplacedRun(run_idx.first, run_idx.second,
                            std::move(run.synopsis), std::move(run.meta)));
  Db out = Assemble(config_, std::move(set));
  if (table_ != nullptr) out.table_ = std::make_unique<Table>(*table_);
  if (feedback_ledger() != nullptr) {
    feedback_ledger()->Forget(spec.row_begin, spec.row_end);
  }
  return out;
}

}  // namespace pairwisehist
