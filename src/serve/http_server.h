// Minimal embedded HTTP/1.1 server: blocking POSIX sockets, one thread
// per connection, keep-alive, no external dependencies. The same shape as
// the ExpressionMatrix2-style embedded servers the ROADMAP grounds on —
// enough to put a ServingDb behind curl and a closed-loop bench client,
// not a general-purpose web server.
//
// Robustness: header/body sizes are capped (413 instead of unbounded
// buffering), malformed framing is answered with a 400 and the connection
// closed instead of spinning, idle keep-alive peers are reaped, and
// Drain() stops accepting while letting in-flight requests finish.
#ifndef PAIRWISEHIST_SERVE_HTTP_SERVER_H_
#define PAIRWISEHIST_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace pairwisehist {

struct HttpRequest {
  std::string method;  ///< "GET", "POST", ...
  std::string path;    ///< request target without the query string
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;
  /// When the request was fully read off the socket (deadline bookkeeping).
  std::chrono::steady_clock::time_point arrival;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string* FindHeader(std::string_view name) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers (e.g. Retry-After on a 503).
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Standard reason phrase for a status code ("OK", "Bad Request", ...).
const char* HttpStatusText(int status);

struct HttpServerOptions {
  /// Reap keep-alive connections idle longer than this. 0 = never.
  uint32_t idle_timeout_ms = 30000;
  /// SO_RCVTIMEO / SO_SNDTIMEO on accepted sockets — bounds how long a
  /// single send to a stalled peer can block a connection thread. 0 = off.
  uint32_t io_timeout_ms = 10000;
  /// Max requests answered as one pipeline group (bounds per-connection
  /// buffering; longer bursts are simply answered in several groups).
  size_t max_pipeline_group = 64;
};

class HttpServer {
 public:
  /// `handler` runs on a per-connection thread; it must be safe to call
  /// concurrently (ServingDb's handler is).
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Optional pipelining-aware handler: receives every request already
  /// buffered on the connection (an HTTP/1.1 pipeline burst) as one
  /// group and returns one response per request, in order. Lets the
  /// service batch-execute a burst on the connection's own thread — no
  /// cross-thread handoff. When absent, pipelined requests are served
  /// one at a time through `handler`.
  using BatchHandler =
      std::function<std::vector<HttpResponse>(const std::vector<HttpRequest>&)>;

  explicit HttpServer(Handler handler, BatchHandler batch_handler = nullptr,
                      HttpServerOptions options = {});
  ~HttpServer();  // Stop()s if still running
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 0.0.0.0:`port` (0 = kernel-assigned; see port()) and starts
  /// accepting. Returns InvalidArgument when the port is taken.
  Status Start(uint16_t port);

  /// The bound port (valid after Start succeeds).
  uint16_t port() const { return port_; }
  bool running() const { return listen_fd_ >= 0; }

  /// Graceful shutdown: stops accepting new connections, lets every
  /// in-flight request finish and its response flush, then closes
  /// connections as they go idle. Blocks up to `grace_ms` before falling
  /// back to Stop()'s hard shutdown for stragglers. Idempotent with Stop.
  void Drain(uint32_t grace_ms = 5000);

  /// Stops accepting, unblocks every connection thread and joins them.
  /// Idempotent.
  void Stop();

  // Operational counters.
  uint64_t idle_reaped() const {
    return idle_reaped_.load(std::memory_order_relaxed);
  }
  uint64_t malformed_closed() const {
    return malformed_closed_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConn(size_t slot);

  Handler handler_;
  BatchHandler batch_handler_;
  HttpServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_{false};
  std::atomic<uint64_t> idle_reaped_{0};
  std::atomic<uint64_t> malformed_closed_{0};
  std::thread accept_thread_;

  /// Connection registry: fds_[i] pairs with conns_[i]; a thread clears
  /// its fd slot (under mu_) when it closes, so Stop can shut down every
  /// live socket without racing fd reuse.
  std::mutex mu_;
  std::vector<int> fds_;
  std::vector<std::thread> conns_;
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_SERVE_HTTP_SERVER_H_
