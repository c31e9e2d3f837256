// JSON endpoint routing: turns a ServingDb into an HttpServer::Handler.
//
// Endpoints (all responses application/json):
//   POST /query   {"sql": "SELECT ..."}      -> {"epoch":E,"groups":[...]}
//   POST /batch   {"sqls": ["...", ...]}     -> {"epoch":E,"results":[...]}
//   POST /append  CSV body (header row)      -> {"epoch":E,"rows":N,
//                                                "segments":S}
//   GET  /stats                              -> serving counters
//   GET  /healthz                            -> lifecycle + integrity
//                                               (200 ok / 503 otherwise)
// Errors: {"error":"...","code":"..."} with 400 (bad input), 404, 405 or
// 500 (internal). Per-statement /batch failures are inline
// {"error":...} objects; the call itself still returns 200. A read
// rejected because integrity verification quarantined a segment answers
// 503 (retryable after repair); sending X-Allow-Degraded: 1 instead
// answers from the surviving segments with "degraded":true.
//
// Overload behavior (when a ServiceGate is installed): requests beyond
// the in-flight budget are shed with 503 + Retry-After, appends first
// (reads stay useful under a write flood); a request whose deadline —
// X-Deadline-Ms header or the configured default — expired answers 408
// without executing.
#ifndef PAIRWISEHIST_SERVE_SERVICE_H_
#define PAIRWISEHIST_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>

#include "serve/http_server.h"
#include "serve/serving_db.h"

namespace pairwisehist {

struct ServiceLimits {
  /// Total concurrently executing requests. 0 = unlimited.
  uint32_t max_inflight = 0;
  /// Concurrently executing /append requests — a smaller budget than
  /// max_inflight so writes shed before reads. 0 = no separate cap.
  uint32_t max_inflight_appends = 0;
  /// Applied when a request carries no X-Deadline-Ms. 0 = no deadline.
  uint32_t default_deadline_ms = 0;
  /// Advertised in the Retry-After header of a 503 (rounded up to whole
  /// seconds, minimum 1, per the HTTP header's granularity).
  uint32_t retry_after_ms = 250;
};

/// Admission control shared by every connection thread. All methods are
/// thread-safe; Admit/Release pair per request.
class ServiceGate {
 public:
  explicit ServiceGate(ServiceLimits limits = {}) : limits_(limits) {}

  /// True = admitted (caller must Release). False = shed: the matching
  /// counter is bumped and the caller answers 503.
  bool Admit(bool is_append);
  void Release(bool is_append);

  const ServiceLimits& limits() const { return limits_; }
  void CountTimeout() {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
  }

  struct Stats {
    uint32_t inflight = 0;
    uint64_t admitted = 0;
    uint64_t shed_reads = 0;
    uint64_t shed_appends = 0;
    uint64_t timeouts = 0;
  };
  Stats stats() const;

 private:
  ServiceLimits limits_;
  std::atomic<uint32_t> inflight_{0};
  std::atomic<uint32_t> inflight_appends_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_reads_{0};
  std::atomic<uint64_t> shed_appends_{0};
  std::atomic<uint64_t> timeouts_{0};
};

/// Lifecycle phase surfaced by GET /healthz. The embedding binary flips
/// it around startup and drain (kOk just before HttpServer::Start, then
/// kDraining when shutdown begins); handlers only read it. All methods
/// thread-safe. With no ServiceState installed, /healthz reports ok.
class ServiceState {
 public:
  enum class Phase : uint8_t { kStarting, kOk, kDraining };
  void Set(Phase p) { phase_.store(p, std::memory_order_release); }
  Phase phase() const { return phase_.load(std::memory_order_acquire); }

 private:
  std::atomic<Phase> phase_{Phase::kStarting};
};

/// Builds the request handler. `db` (and `gate` / `state`, when given)
/// must outlive the returned handler (and any HttpServer it is installed
/// into). With a null gate there is no admission control or deadline
/// enforcement — the pre-robustness behavior.
HttpServer::Handler MakeServingHandler(ServingDb* db,
                                       ServiceGate* gate = nullptr,
                                       ServiceState* state = nullptr);

/// Builds the pipelining-aware group handler: the POST /query requests of
/// a pipelined burst execute as one ServingDb::QueryBatch on the
/// connection's own thread. Other requests, and /query requests carrying
/// X-Allow-Degraded, take the single-request path. Every response is
/// byte-identical to sending the request alone, and admission, deadlines
/// and the service.handle failpoint apply per request. This is the only
/// read grouping: statements on different connections never share a
/// batch, so clients that want grouping pipeline or use /batch. Install
/// alongside MakeServingHandler: HttpServer(MakeServingHandler(db, gate),
/// MakeServingBatchHandler(db, gate)).
HttpServer::BatchHandler MakeServingBatchHandler(ServingDb* db,
                                                 ServiceGate* gate = nullptr,
                                                 ServiceState* state = nullptr);

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_SERVE_SERVICE_H_
