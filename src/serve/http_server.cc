#include "serve/http_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "serve/http_io.h"

namespace pairwisehist {

const char* HttpStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

namespace {

/// Splits "METHOD SP target SP version"; false when malformed.
bool ParseRequestLine(const HttpMessage& msg, HttpRequest* req) {
  const size_t sp1 = msg.start_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? sp1 : msg.start_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
  req->method = msg.start_line.substr(0, sp1);
  std::string target = msg.start_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t qmark = target.find('?');
  if (qmark != std::string::npos) target.resize(qmark);
  req->path = std::move(target);
  return true;
}

bool WantsClose(const HttpMessage& msg) {
  const std::string* h = msg.FindHeader("Connection");
  return h != nullptr && *h == "close";
}

void SetIoTimeout(int fd, uint32_t io_timeout_ms) {
  if (io_timeout_ms == 0) return;
  struct timeval tv;
  tv.tv_sec = io_timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(io_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  // Reads use poll() with their own idle budget, but a receive timeout
  // still bounds the blocking recv after poll reports readiness.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  return FindHttpHeader(headers, name);
}

HttpServer::HttpServer(Handler handler, BatchHandler batch_handler,
                       HttpServerOptions options)
    : handler_(std::move(handler)),
      batch_handler_(std::move(batch_handler)),
      options_(options) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(uint16_t port) {
  if (listen_fd_ >= 0) return Status::Internal("HttpServer already started");
  stop_.store(false, std::memory_order_relaxed);
  drain_.store(false, std::memory_order_relaxed);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return Status::InvalidArgument("bind failed on port " +
                                   std::to_string(port));
  }
  if (::listen(fd, 128) < 0) {
    ::close(fd);
    return Status::Internal("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) <
      0) {
    ::close(fd);
    return Status::Internal("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (Stop/Drain) or fatal error
    }
    if (drain_.load(std::memory_order_relaxed)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SetIoTimeout(fd, options_.io_timeout_ms);
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    const size_t slot = fds_.size();
    fds_.push_back(fd);
    conns_.emplace_back([this, slot] { ServeConn(slot); });
  }
}

void HttpServer::ServeConn(size_t slot) {
  int fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fd = fds_[slot];
  }
  HttpConn conn(fd);
  // Responses are corked: appended to `pending` and flushed only when the
  // next Read would actually wait on the socket (see HttpConn::Read's
  // on_block). Pipelined requests are thus answered with one send for the
  // whole burst instead of one per response.
  std::string pending;
  const std::function<Status()> flush = [&conn, &pending]() -> Status {
    if (pending.empty()) return Status::OK();
    Status st = conn.Write(pending);
    pending.clear();
    return st;
  };
  ReadDeadlines deadlines;
  deadlines.stop = &stop_;
  deadlines.drain = &drain_;
  deadlines.idle_timeout_ms = options_.idle_timeout_ms;
  deadlines.on_block = &flush;

  auto append_response = [&](const HttpResponse& resp, bool close_conn) {
    pending.reserve(pending.size() + resp.body.size() + 160);
    pending += "HTTP/1.1 ";
    pending += std::to_string(resp.status);
    pending += ' ';
    pending += HttpStatusText(resp.status);
    pending += "\r\nContent-Type: ";
    pending += resp.content_type;
    pending += "\r\nContent-Length: ";
    pending += std::to_string(resp.body.size());
    for (const auto& h : resp.headers) {
      pending += "\r\n";
      pending += h.first;
      pending += ": ";
      pending += h.second;
    }
    pending += close_conn ? "\r\nConnection: close\r\n\r\n"
                          : "\r\nConnection: keep-alive\r\n\r\n";
    pending += resp.body;
  };

  // Reused across requests so their strings keep their capacity.
  HttpMessage msg, more;
  std::vector<HttpRequest> reqs;
  while (!stop_.load(std::memory_order_relaxed)) {
    bool closed = false;
    Status st = conn.Read(&msg, &closed, deadlines);
    if (!st.ok()) {
      // Malformed (400) or oversized (413) framing: answer, then close —
      // never spin on a garbage connection. Anything else (socket error,
      // peer dropped mid-message, server stopping) just closes.
      if (st.code() == StatusCode::kInvalidArgument ||
          st.code() == StatusCode::kOutOfRange) {
        HttpResponse err;
        err.status = st.code() == StatusCode::kOutOfRange ? 413 : 400;
        err.body = "{\"error\":\"" + st.message() + "\"}";
        append_response(err, /*close_conn=*/true);
        (void)flush();
        malformed_closed_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    if (closed) {
      // Orderly close, drain, or idle reap. Count reaps distinctly: the
      // idle path fires only when idle_timeout_ms elapsed, which Read
      // reports identically to a peer close — attribute it to a reap when
      // the server is still live (not stopping/draining).
      if (!drain_.load(std::memory_order_relaxed) &&
          options_.idle_timeout_ms > 0) {
        idle_reaped_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    const auto arrival = std::chrono::steady_clock::now();

    // Collect this request plus (with a batch handler installed) every
    // pipelined follower already buffered on the connection. The group
    // stops at a Connection: close request or a malformed one; requests
    // before the malformed one are still answered, then the connection
    // closes after a 400.
    reqs.clear();
    Status bad = Status::OK();
    bool close_after = false;
    auto take = [&](HttpMessage* m) {
      HttpRequest req;
      if (!ParseRequestLine(*m, &req)) {
        bad = Status::InvalidArgument("malformed request line");
        return false;
      }
      if (WantsClose(*m)) close_after = true;
      req.headers = std::move(m->headers);
      req.body = std::move(m->body);
      req.arrival = arrival;
      reqs.push_back(std::move(req));
      return !close_after;
    };
    if (take(&msg) && batch_handler_ != nullptr) {
      Status parse_st;
      while (reqs.size() < options_.max_pipeline_group &&
             conn.TryReadBuffered(&more, &parse_st)) {
        if (!take(&more)) break;
      }
      if (!parse_st.ok()) bad = parse_st;  // malformed buffered bytes
    }

    std::vector<HttpResponse> resps;
    if (batch_handler_ != nullptr && reqs.size() > 1) {
      resps = batch_handler_(reqs);
      while (resps.size() < reqs.size()) {  // defensive: contract breach
        HttpResponse err;
        err.status = 500;
        err.body = "{\"error\":\"batch handler dropped a response\"}";
        resps.push_back(std::move(err));
      }
    } else {
      resps.reserve(reqs.size());
      for (const HttpRequest& r : reqs) resps.push_back(handler_(r));
    }
    if (!bad.ok()) {
      HttpResponse err;
      err.status = bad.code() == StatusCode::kOutOfRange ? 413 : 400;
      err.body = "{\"error\":\"" + bad.message() + "\"}";
      resps.push_back(std::move(err));
      close_after = true;
      malformed_closed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (drain_.load(std::memory_order_relaxed)) close_after = true;

    bool write_failed = false;
    for (size_t i = 0; i < resps.size(); ++i) {
      append_response(resps[i], close_after && i + 1 == resps.size());
      // Bound the cork: a burst of large responses flushes eagerly.
      if (pending.size() > (1u << 20) && !flush().ok()) {
        write_failed = true;
        break;
      }
    }
    if (write_failed) break;
    if (close_after) {
      (void)flush();
      break;
    }
  }
  (void)flush();
  std::lock_guard<std::mutex> lock(mu_);
  ::close(fd);
  fds_[slot] = -1;  // tell Stop() this fd is gone (avoid fd-reuse races)
}

void HttpServer::Drain(uint32_t grace_ms) {
  if (listen_fd_ < 0) return;
  drain_.store(true, std::memory_order_relaxed);
  // Wake the acceptor; new connections are refused from here on.
  ::shutdown(listen_fd_, SHUT_RDWR);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    bool live = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int fd : fds_) {
        if (fd >= 0) {
          live = true;
          break;
        }
      }
    }
    if (!live) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Stop();  // joins threads; stragglers past the grace get a hard shutdown
}

void HttpServer::Stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_relaxed);
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (std::thread& t : conns_) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  conns_.clear();
  fds_.clear();
}

}  // namespace pairwisehist
