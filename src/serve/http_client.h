// Minimal blocking HTTP/1.1 client with keep-alive, for the serve tests
// and the closed-loop bench. Numeric IPv4 hosts only (the embedded server
// is always reached as 127.0.0.1).
#ifndef PAIRWISEHIST_SERVE_HTTP_CLIENT_H_
#define PAIRWISEHIST_SERVE_HTTP_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "serve/http_io.h"
#include "serve/http_server.h"

namespace pairwisehist {

/// Retry policy for HttpClient::RequestWithRetry: capped exponential
/// backoff with decorrelated jitter. Only idempotent requests should use
/// it (queries are; appends are not unless the caller dedupes).
struct HttpRetryPolicy {
  uint32_t max_attempts = 4;
  uint32_t initial_backoff_ms = 10;
  uint32_t max_backoff_ms = 500;
  /// Jitter seed (deterministic per client for reproducible tests).
  uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to `host`:`port` (host must be a numeric IPv4 address).
  Status Connect(const std::string& host, uint16_t port);

  /// Bounds how long a single send/recv may block (SO_SNDTIMEO /
  /// SO_RCVTIMEO on the socket). Applies to the current connection and
  /// any reconnects. 0 = wait forever (the default).
  void SetIoTimeout(uint32_t io_timeout_ms);

  /// Sends one request on the kept-alive connection and reads the
  /// response. Reconnects once if the server closed the connection.
  /// `headers` are extra request headers (e.g. {"X-Deadline-Ms","50"}).
  StatusOr<HttpResponse> Request(
      const std::string& method, const std::string& path,
      const std::string& body = "",
      const std::string& content_type = "application/json",
      const std::vector<std::pair<std::string, std::string>>& headers = {});

  /// Request() plus retry-on-overload for idempotent requests: retries
  /// connect/transport failures and 503 responses with capped exponential
  /// backoff + jitter, honoring a server Retry-After (seconds) when it is
  /// shorter than the computed backoff would allow. Non-503 responses
  /// (including other errors) return immediately.
  StatusOr<HttpResponse> RequestWithRetry(
      const std::string& method, const std::string& path,
      const std::string& body = "",
      const std::string& content_type = "application/json",
      const std::vector<std::pair<std::string, std::string>>& headers = {},
      const HttpRetryPolicy& policy = {});

  /// HTTP/1.1 pipelining: sends one request per body back-to-back in a
  /// single write, then reads the responses in order. A dashboard page
  /// firing all its tile statements down one connection pays the socket
  /// round trip once for the whole burst, and the server batch-executes
  /// the burst's statements (see MakeServingBatchHandler). No reconnect
  /// on failure.
  StatusOr<std::vector<HttpResponse>> RequestPipelined(
      const std::string& method, const std::string& path,
      const std::vector<std::string>& bodies,
      const std::string& content_type = "application/json");

  void Close();
  bool connected() const { return conn_ != nullptr; }

  /// Transparent retries performed by RequestWithRetry so far.
  uint64_t retries() const { return retries_; }

 private:
  StatusOr<HttpResponse> RequestOnce(const std::string& wire);
  StatusOr<HttpResponse> ReadResponse();

  std::string host_;
  uint16_t port_ = 0;
  uint32_t io_timeout_ms_ = 0;
  uint64_t retries_ = 0;
  std::unique_ptr<HttpConn> conn_;
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_SERVE_HTTP_CLIENT_H_
