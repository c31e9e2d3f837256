// Blocking-socket HTTP/1.1 message I/O shared by the embedded server and
// the test/bench client. POSIX sockets only, no external dependencies —
// the serving layer targets the same minimal-footprint shape as the rest
// of the library.
//
// Robustness contract: malformed framing surfaces as InvalidArgument (the
// server answers 400 and closes), oversized headers/bodies as OutOfRange
// (413) before any unbounded buffering, idle peers are reaped after
// ReadDeadlines::idle_timeout_ms, and every read/write path handles EINTR
// and short transfers.
#ifndef PAIRWISEHIST_SERVE_HTTP_IO_H_
#define PAIRWISEHIST_SERVE_HTTP_IO_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace pairwisehist {

/// Hard caps on buffered message size (enforced before buffering).
constexpr size_t kMaxHttpHeaderBytes = 64 * 1024;
constexpr size_t kMaxHttpBodyBytes = 64u * 1024 * 1024;

/// One parsed HTTP message (request or response).
struct HttpMessage {
  std::string start_line;  ///< "POST /query HTTP/1.1" or "HTTP/1.1 200 OK"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string* FindHeader(std::string_view name) const;
};

/// Case-insensitive lookup in a header list; nullptr when absent. Shared
/// by HttpMessage and HttpRequest.
const std::string* FindHttpHeader(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name);

/// Knobs for HttpConn::Read. All optional; zero/null = wait forever.
struct ReadDeadlines {
  /// Hard abort: a pending read returns Internal when this becomes true
  /// (polled every ~100 ms).
  const std::atomic<bool>* stop = nullptr;
  /// Graceful drain: when this becomes true and the connection sits
  /// *between* messages (no buffered partial bytes), Read reports an
  /// orderly close so the connection can finish in-flight work and exit.
  const std::atomic<bool>* drain = nullptr;
  /// Reap idle peers: with no complete message after this many ms, Read
  /// reports an orderly close (nothing buffered) or DataLoss (peer stalled
  /// mid-message). 0 = never.
  uint32_t idle_timeout_ms = 0;
  /// Runs once, just before the first wait on the socket — i.e. only when
  /// the buffered bytes don't already hold a complete message. A server
  /// corking its responses flushes there. A non-OK result aborts the read.
  const std::function<Status()>* on_block = nullptr;
};

/// A connected socket with read buffering (keep-alive pipelining safe:
/// bytes past one message stay buffered for the next Read).
class HttpConn {
 public:
  explicit HttpConn(int fd) : fd_(fd) {}

  /// Reads one full message (headers + Content-Length body). On orderly
  /// peer close before any bytes of a new message — or drain/idle-reap per
  /// `deadlines` — sets *closed and returns OK with an empty message.
  /// Malformed framing returns InvalidArgument; oversized headers or
  /// Content-Length beyond the caps returns OutOfRange without buffering
  /// the excess.
  Status Read(HttpMessage* msg, bool* closed,
              const ReadDeadlines& deadlines = {});

  /// Pipelining drain: parses the next message if one is already
  /// buffered (topping the buffer up with a single non-blocking recv),
  /// never waiting on the socket. Returns true when *msg was filled.
  /// False with non-OK *st means the buffered bytes are malformed;
  /// false with OK *st just means no complete message is available yet
  /// (partial bytes stay buffered for the next Read).
  bool TryReadBuffered(HttpMessage* msg, Status* st);

  /// Writes the whole buffer: retries EINTR and short writes; a send
  /// timeout (SO_SNDTIMEO on the fd) or injected "http.send" fault
  /// surfaces as Internal. Never raises SIGPIPE.
  Status Write(const std::string& data);

  int fd() const { return fd_; }

 private:
  /// Parses one complete message at pos_ (consuming it by advancing
  /// pos_). Returns 1 = parsed, 0 = need more bytes, -1 = malformed or
  /// oversized (*st set); *msg is empty unless 1. The start line and
  /// headers are parsed as views over buf_, and a reused *msg keeps its
  /// strings' capacity.
  int ParseBuffered(HttpMessage* msg, Status* st);

  int fd_;
  std::string buf_;
  size_t pos_ = 0;  ///< start of the unconsumed bytes in buf_
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_SERVE_HTTP_IO_H_
