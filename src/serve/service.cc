#include "serve/service.h"

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/integrity.h"
#include "serve/json.h"
#include "storage/csv.h"

namespace pairwisehist {

bool ServiceGate::Admit(bool is_append) {
  if (is_append && limits_.max_inflight_appends > 0) {
    uint32_t cur = inflight_appends_.load(std::memory_order_relaxed);
    while (true) {
      if (cur >= limits_.max_inflight_appends) {
        shed_appends_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (inflight_appends_.compare_exchange_weak(
              cur, cur + 1, std::memory_order_acq_rel)) {
        break;
      }
    }
  }
  if (limits_.max_inflight > 0) {
    uint32_t cur = inflight_.load(std::memory_order_relaxed);
    while (true) {
      if (cur >= limits_.max_inflight) {
        if (is_append && limits_.max_inflight_appends > 0) {
          inflight_appends_.fetch_sub(1, std::memory_order_acq_rel);
        }
        (is_append ? shed_appends_ : shed_reads_)
            .fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (inflight_.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_acq_rel)) {
        break;
      }
    }
  } else {
    inflight_.fetch_add(1, std::memory_order_acq_rel);
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ServiceGate::Release(bool is_append) {
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  if (is_append && limits_.max_inflight_appends > 0) {
    inflight_appends_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

ServiceGate::Stats ServiceGate::stats() const {
  Stats s;
  s.inflight = inflight_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.shed_reads = shed_reads_.load(std::memory_order_relaxed);
  s.shed_appends = shed_appends_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  return s;
}

namespace {

int HttpCodeFor(const Status& st) {
  switch (st.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kUnsupported:
    case StatusCode::kUnimplemented:
      return 400;
    case StatusCode::kOutOfRange:
      return 413;
    case StatusCode::kDataLoss:
      // A read refused because integrity verification quarantined a
      // segment is a server-side condition that clears when the operator
      // restores the file (or the next checkpoint replaces it): 503, so
      // clients retry. Every other DataLoss on the service surface means
      // the client's bytes were truncated/corrupt (e.g. a torn CSV or
      // WAL codec reject) — client input, not a server fault.
      return st.message().find("quarantined") != std::string::npos ? 503
                                                                   : 400;
    default:
      return 500;
  }
}

HttpResponse ErrorResponse(const Status& st) {
  HttpResponse resp;
  resp.status = HttpCodeFor(st);
  resp.body = "{\"error\":";
  AppendJsonString(&resp.body, st.message());
  resp.body += ",\"code\":";
  AppendJsonString(&resp.body, StatusCodeName(st.code()));
  resp.body += "}";
  return resp;
}

HttpResponse SimpleError(int status, const std::string& msg) {
  HttpResponse resp;
  resp.status = status;
  resp.body = "{\"error\":";
  AppendJsonString(&resp.body, msg);
  resp.body += "}";
  return resp;
}

HttpResponse ShedResponse(const ServiceGate* gate) {
  HttpResponse resp = SimpleError(503, "over capacity, retry later");
  const uint32_t ms = gate->limits().retry_after_ms;
  const uint32_t secs = ms == 0 ? 1 : (ms + 999) / 1000;
  resp.headers.emplace_back("Retry-After", std::to_string(secs));
  return resp;
}

/// Per-request deadline bookkeeping: header > configured default > none.
struct Deadline {
  bool active = false;
  std::chrono::steady_clock::time_point at;

  static Deadline For(const HttpRequest& req, const ServiceGate* gate) {
    Deadline d;
    uint32_t ms = gate != nullptr ? gate->limits().default_deadline_ms : 0;
    if (const std::string* h = req.FindHeader("X-Deadline-Ms")) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(h->c_str(), &end, 10);
      if (end != h->c_str() && *end == '\0') ms = static_cast<uint32_t>(v);
    }
    if (ms == 0) return d;
    // Direct handler invocations (tests, shell) carry no arrival stamp;
    // the deadline then starts now rather than at the clock's epoch.
    const auto base =
        req.arrival == std::chrono::steady_clock::time_point{}
            ? std::chrono::steady_clock::now()
            : req.arrival;
    d.active = true;
    d.at = base + std::chrono::milliseconds(ms);
    return d;
  }

  bool Expired() const {
    return active && std::chrono::steady_clock::now() >= at;
  }
};

HttpResponse DeadlineResponse(ServiceGate* gate) {
  if (gate != nullptr) gate->CountTimeout();
  return SimpleError(408, "deadline expired before execution");
}

/// True when the client opted into degraded reads (X-Allow-Degraded: 1
/// or true). Quarantined segments are then skipped instead of failing
/// the read closed with 503.
bool AllowsDegraded(const HttpRequest& req) {
  const std::string* h = req.FindHeader("X-Allow-Degraded");
  return h != nullptr && (*h == "1" || *h == "true");
}

void AppendDegradedFields(std::string* b, const DegradedInfo& degraded) {
  if (!degraded.degraded) return;
  *b += ",\"degraded\":true,\"rows_skipped\":";
  *b += std::to_string(degraded.rows_skipped);
  *b += ",\"segments_skipped\":";
  *b += std::to_string(degraded.segments_skipped);
}

/// Bytes one group adds in AppendQueryResult, label aside: the keys plus
/// three numbers of at most 24 characters each.
constexpr size_t kQueryGroupJsonBytes = 130;

/// Writes the /query response for one statement's outcome into *resp.
/// Single requests and pipelined bursts both answer through here, so
/// their bodies are byte-identical. The body is reserved once and written
/// in place.
void WriteQueryResponse(const Status& st, uint64_t epoch,
                        const DegradedInfo& degraded,
                        const QueryResult& result, HttpResponse* resp) {
  if (!st.ok()) {
    *resp = ErrorResponse(st);
    return;
  }
  std::string& b = resp->body;
  size_t bytes = 96;  // epoch, degraded fields, wrappers
  for (const QueryResult::Group& g : result.groups) {
    bytes += kQueryGroupJsonBytes + 2 * g.label.size();  // room for escapes
  }
  b.clear();
  b.reserve(bytes);
  b += "{\"epoch\":";
  b += std::to_string(epoch);
  AppendDegradedFields(&b, degraded);
  b += ",\"result\":";
  AppendQueryResult(&b, result);
  b += "}";
}

HttpResponse HandleQuery(ServingDb* db, const HttpRequest& req) {
  std::string sql;
  const Status parsed = ParseJsonStringMember(req.body, "sql", &sql);
  if (parsed.code() == StatusCode::kNotFound) {
    return SimpleError(400, "body must be {\"sql\": \"...\"}");
  }
  if (!parsed.ok()) return ErrorResponse(parsed);
  ReadOptions ropts;
  ropts.allow_degraded = AllowsDegraded(req);
  QueryResult result;
  DegradedInfo degraded;
  uint64_t epoch = 0;
  Status st = db->Query(sql, ropts, &result, &degraded, &epoch);
  HttpResponse resp;
  WriteQueryResponse(st, epoch, degraded, result, &resp);
  return resp;
}

HttpResponse HandleBatch(ServingDb* db, const HttpRequest& req) {
  StatusOr<JsonValue> doc = ParseJson(req.body);
  if (!doc.ok()) return ErrorResponse(doc.status());
  const JsonValue* arr = doc.value().Find("sqls");
  if (arr == nullptr || arr->type != JsonValue::Type::kArray) {
    return SimpleError(400, "body must be {\"sqls\": [\"...\", ...]}");
  }
  std::vector<std::string> sqls;
  sqls.reserve(arr->items.size());
  for (const JsonValue& item : arr->items) {
    if (item.type != JsonValue::Type::kString) {
      return SimpleError(400, "every element of \"sqls\" must be a string");
    }
    sqls.push_back(item.str);
  }
  ReadOptions ropts;
  ropts.allow_degraded = AllowsDegraded(req);
  std::vector<QueryResult> results;
  std::vector<Status> statement_status;
  DegradedInfo degraded;
  uint64_t epoch = 0;
  Status st = db->QueryBatch(sqls, ropts, &results, &statement_status,
                             &degraded, &epoch);
  if (!st.ok()) return ErrorResponse(st);
  HttpResponse resp;
  resp.body += "{\"epoch\":";
  resp.body += std::to_string(epoch);
  AppendDegradedFields(&resp.body, degraded);
  resp.body += ",\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i != 0) resp.body.push_back(',');
    if (statement_status[i].ok()) {
      AppendQueryResult(&resp.body, results[i]);
    } else {
      resp.body += "{\"error\":";
      AppendJsonString(&resp.body, statement_status[i].message());
      resp.body += ",\"code\":";
      AppendJsonString(&resp.body,
                       StatusCodeName(statement_status[i].code()));
      resp.body += "}";
    }
  }
  resp.body += "]}";
  return resp;
}

/// CSV carries no type annotations, so ParseCsv can only infer int64 /
/// float64 / categorical. Re-type columns to what the serving schema
/// expects wherever that is lossless — numeric <-> numeric/timestamp
/// (timestamps round-trip as epoch integers), and all-null columns to
/// anything — so a ToCsvString round-trip appends cleanly. Genuine
/// mismatches are left alone for Db's schema validation to report.
Table CoerceToSchema(
    Table batch, const std::vector<std::pair<std::string, DataType>>& schema) {
  if (batch.NumColumns() != schema.size()) return batch;
  auto is_numeric = [](DataType t) {
    return t == DataType::kFloat64 || t == DataType::kInt64 ||
           t == DataType::kTimestamp;
  };
  Table out(batch.name());
  for (size_t c = 0; c < schema.size(); ++c) {
    Column& col = batch.column(c);
    const DataType want = schema[c].second;
    bool coercible = col.name() == schema[c].first && col.type() != want &&
                     is_numeric(want) &&
                     (is_numeric(col.type()) || col.non_null_count() == 0);
    if (!coercible) {
      out.AddColumn(std::move(col));
      continue;
    }
    Column typed(col.name(), want,
                 want == DataType::kFloat64 ? col.decimals() : 0);
    typed.Reserve(col.size());
    for (size_t r = 0; r < col.size(); ++r) {
      if (col.IsNull(r)) {
        typed.AppendNull();
      } else {
        typed.Append(col.Value(r));
      }
    }
    out.AddColumn(std::move(typed));
  }
  return out;
}

HttpResponse HandleAppend(ServingDb* db, const HttpRequest& req,
                          ServiceGate* gate, const Deadline& deadline) {
  StatusOr<Table> parsed = ParseCsv(req.body, "append");
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const Table batch = CoerceToSchema(std::move(parsed).value(),
                                     db->snapshot()->db.AppendSchema());
  // Parsing a large CSV can consume the whole budget; don't start the
  // expensive (and durable) build for a client that already gave up.
  if (deadline.Expired()) return DeadlineResponse(gate);
  Status st = db->Append(batch);
  if (!st.ok()) return ErrorResponse(st);
  ServingStats stats = db->Stats();
  HttpResponse resp;
  resp.body += "{\"epoch\":";
  resp.body += std::to_string(stats.epoch);
  resp.body += ",\"rows\":";
  resp.body += std::to_string(stats.rows);
  resp.body += ",\"segments\":";
  resp.body += std::to_string(stats.segments);
  resp.body += "}";
  return resp;
}

HttpResponse HandleStats(ServingDb* db, ServiceGate* gate) {
  const ServingStats s = db->Stats();
  HttpResponse resp;
  std::string& b = resp.body;
  b += "{\"epoch\":" + std::to_string(s.epoch);
  b += ",\"segments\":" + std::to_string(s.segments);
  b += ",\"rows\":" + std::to_string(s.rows);
  b += ",\"queries\":" + std::to_string(s.queries);
  b += ",\"batches\":" + std::to_string(s.batches);
  b += ",\"batch_statements\":" + std::to_string(s.batch_statements);
  b += ",\"cache_hits\":" + std::to_string(s.cache_hits);
  b += ",\"cache_misses\":" + std::to_string(s.cache_misses);
  b += ",\"cache_entries\":" + std::to_string(s.cache_entries);
  b += ",\"appends\":" + std::to_string(s.appends);
  b += ",\"errors\":" + std::to_string(s.errors);
  b += ",\"mapped_bytes\":" + std::to_string(s.mapped_bytes);
  b += ",\"quarantined_segments\":" + std::to_string(s.quarantined_segments);
  b += ",\"quarantined_rows\":" + std::to_string(s.quarantined_rows);
  b += ",\"scrub_errors\":" + std::to_string(s.scrub_errors);
  b += ",\"degraded_reads\":" + std::to_string(s.degraded_reads);
  b += ",\"compaction_enabled\":";
  b += s.compaction_enabled ? "true" : "false";
  b += ",\"compaction_seq\":" + std::to_string(s.compaction_seq);
  b += ",\"compaction_runs\":" + std::to_string(s.compaction_runs);
  b += ",\"compaction_segments_merged\":" +
       std::to_string(s.compaction_segments_merged);
  b += ",\"compaction_rows_rewritten\":" +
       std::to_string(s.compaction_rows_rewritten);
  b += ",\"compaction_bytes_rewritten\":" +
       std::to_string(s.compaction_bytes_rewritten);
  b += ",\"compaction_backlog\":" + std::to_string(s.compaction_backlog);
  b += ",\"compaction_errors\":" + std::to_string(s.compaction_errors);
  b += ",\"quarantine_drained\":" + std::to_string(s.quarantine_drained);
  b += ",\"retained_bytes\":" + std::to_string(s.retained_bytes);
  b += ",\"durable\":";
  b += s.durable ? "true" : "false";
  if (s.durable) {
    b += ",\"wal_records\":" + std::to_string(s.wal_records);
    b += ",\"wal_bytes\":" + std::to_string(s.wal_bytes);
    b += ",\"wal_fsyncs\":" + std::to_string(s.wal_fsyncs);
    b += ",\"last_checkpoint_epoch\":" +
         std::to_string(s.last_checkpoint_epoch);
    b += ",\"checkpoints\":" + std::to_string(s.checkpoints);
    b += ",\"recovered_records\":" + std::to_string(s.recovered_records);
    b += ",\"recovered_rows\":" + std::to_string(s.recovered_rows);
    b += ",\"recovery_tail_truncated\":";
    b += s.recovery_tail_truncated ? "true" : "false";
    b += ",\"checkpoints_skipped\":" + std::to_string(s.checkpoints_skipped);
    if (!s.corrupt_checkpoint.empty()) {
      b += ",\"corrupt_checkpoint\":";
      AppendJsonString(&b, s.corrupt_checkpoint);
    }
  }
  if (gate != nullptr) {
    const ServiceGate::Stats g = gate->stats();
    b += ",\"inflight\":" + std::to_string(g.inflight);
    b += ",\"admitted\":" + std::to_string(g.admitted);
    b += ",\"shed_reads\":" + std::to_string(g.shed_reads);
    b += ",\"shed_appends\":" + std::to_string(g.shed_appends);
    b += ",\"timeouts\":" + std::to_string(g.timeouts);
  }
  b += "}";
  return resp;
}

/// Liveness/readiness for load balancers and orchestration probes: 200
/// only while serving (ok), 503 while starting or draining so traffic
/// routes away before the listener actually stops. The body carries the
/// integrity counters an operator checks first when probes flap.
HttpResponse HandleHealthz(ServingDb* db, ServiceState* state) {
  const ServiceState::Phase phase =
      state != nullptr ? state->phase() : ServiceState::Phase::kOk;
  const ServingStats s = db->Stats();
  HttpResponse resp;
  resp.status = phase == ServiceState::Phase::kOk ? 200 : 503;
  std::string& b = resp.body;
  b += "{\"status\":\"";
  b += phase == ServiceState::Phase::kStarting   ? "starting"
       : phase == ServiceState::Phase::kDraining ? "draining"
                                                 : "ok";
  b += "\",\"quarantined_segments\":" + std::to_string(s.quarantined_segments);
  b += ",\"quarantined_rows\":" + std::to_string(s.quarantined_rows);
  b += ",\"scrub_errors\":" + std::to_string(s.scrub_errors);
  b += ",\"legacy_pws3v1_opens\":" + std::to_string(Pws3LegacyOpenCount());
  b += ",\"compaction_runs\":" + std::to_string(s.compaction_runs);
  b += ",\"compaction_backlog\":" + std::to_string(s.compaction_backlog);
  b += ",\"compaction_errors\":" + std::to_string(s.compaction_errors);
  b += "}";
  return resp;
}

HttpResponse Dispatch(ServingDb* db, const HttpRequest& req,
                      ServiceGate* gate, ServiceState* state,
                      const Deadline& deadline) {
  if (req.path == "/query") {
    if (req.method != "POST") return SimpleError(405, "use POST /query");
    return HandleQuery(db, req);
  }
  if (req.path == "/batch") {
    if (req.method != "POST") return SimpleError(405, "use POST /batch");
    return HandleBatch(db, req);
  }
  if (req.path == "/append") {
    if (req.method != "POST") return SimpleError(405, "use POST /append");
    return HandleAppend(db, req, gate, deadline);
  }
  if (req.path == "/stats") {
    if (req.method != "GET") return SimpleError(405, "use GET /stats");
    return HandleStats(db, gate);
  }
  if (req.path == "/healthz") {
    if (req.method != "GET") return SimpleError(405, "use GET /healthz");
    return HandleHealthz(db, state);
  }
  return SimpleError(404, "unknown endpoint '" + req.path +
                              "' (try /query /batch /append /stats /healthz)");
}

/// Admission for one gated request: deadline, then the gate, then the
/// service.handle failpoint. True = admitted (the caller must Release);
/// false = `*refusal` holds the answer.
bool AdmitRequest(ServiceGate* gate, bool is_append, const Deadline& deadline,
                  HttpResponse* refusal) {
  if (deadline.Expired()) {
    *refusal = DeadlineResponse(gate);
    return false;
  }
  if (!gate->Admit(is_append)) {
    *refusal = ShedResponse(gate);
    return false;
  }
  Status injected = failpoint::Fire("service.handle").status;
  if (!injected.ok()) {
    gate->Release(is_append);
    *refusal = ErrorResponse(injected);
    return false;
  }
  return true;
}

/// Admission + deadline wrapper around Dispatch. /stats and /healthz are
/// never gated: the operator's view (and the probe that decides whether
/// to route traffic here at all) must stay reachable during the overload
/// they exist to diagnose.
HttpResponse HandleRequest(ServingDb* db, const HttpRequest& req,
                           ServiceGate* gate, ServiceState* state) {
  if (gate == nullptr || req.path == "/stats" || req.path == "/healthz") {
    return Dispatch(db, req, gate, state, Deadline{});
  }
  const Deadline deadline = Deadline::For(req, gate);
  const bool is_append = req.path == "/append";
  HttpResponse resp;
  if (!AdmitRequest(gate, is_append, deadline, &resp)) return resp;
  resp = Dispatch(db, req, gate, state, deadline);
  gate->Release(is_append);
  return resp;
}

/// The statement of a /query request that a pipelined burst can batch: a
/// POST with a well-formed {"sql": "..."} body and no per-request degraded
/// opt-in (the batch runs under default ReadOptions).
bool BatchableSql(const HttpRequest& req, std::string* sql) {
  if (req.method != "POST" || req.path != "/query" || AllowsDegraded(req)) {
    return false;
  }
  return ParseJsonStringMember(req.body, "sql", sql).ok();
}

}  // namespace

HttpServer::Handler MakeServingHandler(ServingDb* db, ServiceGate* gate,
                                       ServiceState* state) {
  return [db, gate, state](const HttpRequest& req) -> HttpResponse {
    return HandleRequest(db, req, gate, state);
  };
}

HttpServer::BatchHandler MakeServingBatchHandler(ServingDb* db,
                                                 ServiceGate* gate,
                                                 ServiceState* state) {
  return [db, gate, state](const std::vector<HttpRequest>& reqs)
             -> std::vector<HttpResponse> {
    std::vector<HttpResponse> out(reqs.size());
    // Batchable /query statements in the burst execute as one QueryBatch
    // on this thread; everything else takes the single-request path.
    // Admission is per request, as in HandleRequest: a shed or injected
    // request answers alone while its pipeline neighbours still execute.
    std::vector<size_t> qidx;
    std::vector<std::string> sqls;
    qidx.reserve(reqs.size());
    sqls.reserve(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      std::string sql;
      if (!BatchableSql(reqs[i], &sql)) {
        out[i] = HandleRequest(db, reqs[i], gate, state);
        continue;
      }
      if (gate != nullptr &&
          !AdmitRequest(gate, /*is_append=*/false,
                        Deadline::For(reqs[i], gate), &out[i])) {
        continue;
      }
      qidx.push_back(i);
      sqls.push_back(std::move(sql));
    }
    if (sqls.empty()) return out;
    std::vector<QueryResult> results;
    std::vector<Status> statement_status;
    DegradedInfo degraded;
    uint64_t epoch = 0;
    const Status st = db->QueryBatch(sqls, ReadOptions{}, &results,
                                     &statement_status, &degraded, &epoch);
    for (size_t j = 0; j < qidx.size(); ++j) {
      WriteQueryResponse(st.ok() ? statement_status[j] : st, epoch, degraded,
                         results[j], &out[qidx[j]]);
      if (gate != nullptr) gate->Release(/*is_append=*/false);
    }
    return out;
  };
}

}  // namespace pairwisehist
