#include "serve/http_io.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <charconv>
#include <chrono>
#include <cstring>
#include <system_error>

#include "common/failpoint.h"

namespace pairwisehist {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

/// Empties every field, keeping the header list's capacity.
void ClearMessage(HttpMessage* msg) {
  msg->start_line.clear();
  msg->headers.clear();
  msg->body.clear();
}

Status HeadersTooLarge() {
  return Status::OutOfRange("HTTP: headers exceed " +
                            std::to_string(kMaxHttpHeaderBytes) + " bytes");
}

}  // namespace

const std::string* FindHttpHeader(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name) {
  for (const auto& h : headers) {
    if (EqualsIgnoreCase(h.first, name)) return &h.second;
  }
  return nullptr;
}

const std::string* HttpMessage::FindHeader(std::string_view name) const {
  return FindHttpHeader(headers, name);
}

int HttpConn::ParseBuffered(HttpMessage* msg, Status* st) {
  const std::string_view buf = std::string_view(buf_).substr(pos_);
  const size_t header_end = buf.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    ClearMessage(msg);
    if (buf.size() > kMaxHttpHeaderBytes) {
      *st = HeadersTooLarge();
      return -1;
    }
    return 0;
  }
  if (header_end > kMaxHttpHeaderBytes) {
    ClearMessage(msg);
    *st = HeadersTooLarge();
    return -1;
  }

  // Parse start line + headers as views over the buffer. Header slots of
  // a reused message are overwritten in place, keeping their capacity.
  const std::string_view head = buf.substr(0, header_end);
  size_t nheaders = 0;
  auto fail = [&](const char* what) {
    ClearMessage(msg);
    *st = Status::InvalidArgument(what);
    return -1;
  };
  for (size_t line_start = 0;;) {
    size_t line_end = head.find("\r\n", line_start);
    if (line_end == std::string_view::npos) line_end = head.size();
    const std::string_view line =
        head.substr(line_start, line_end - line_start);
    if (line_start == 0) {
      msg->start_line.assign(line);
    } else if (!line.empty()) {
      const size_t colon = line.find(':');
      if (colon == std::string_view::npos) {
        return fail("HTTP: malformed header line");
      }
      if (nheaders == msg->headers.size()) {
        if (msg->headers.capacity() == 0) msg->headers.reserve(8);
        msg->headers.emplace_back();
      }
      auto& h = msg->headers[nheaders++];
      h.first.assign(Trim(line.substr(0, colon)));
      h.second.assign(Trim(line.substr(colon + 1)));
    }
    if (line_end == head.size()) break;
    line_start = line_end + 2;
  }
  msg->headers.resize(nheaders);
  const std::string_view start_line = msg->start_line;
  if (start_line.empty()) return fail("HTTP: empty start line");
  // Either "METHOD /path HTTP/x.y" (request) or "HTTP/x.y CODE text"
  // (response): three tokens with an HTTP-version at one end. Anything
  // else is not HTTP — reject instead of mis-routing garbage.
  {
    const size_t sp1 = start_line.find(' ');
    const size_t sp2 = sp1 == std::string_view::npos
                           ? sp1
                           : start_line.find(' ', sp1 + 1);
    const bool request_shape = sp2 != std::string_view::npos &&
                               start_line.substr(sp2 + 1, 5) == "HTTP/";
    const bool response_shape = start_line.substr(0, 5) == "HTTP/";
    if (!request_shape && !response_shape) {
      return fail("HTTP: malformed start line");
    }
  }

  // Body: exactly Content-Length bytes (0 when absent), all digits. The
  // cap is enforced here, before Read buffers a single body byte beyond
  // it.
  size_t body_len = 0;
  if (const std::string* cl = msg->FindHeader("Content-Length")) {
    unsigned long long v = 0;
    const char* end = cl->data() + cl->size();
    const std::from_chars_result r = std::from_chars(cl->data(), end, v);
    if (r.ec != std::errc() || r.ptr != end) {
      return fail("HTTP: bad Content-Length");
    }
    if (v > kMaxHttpBodyBytes) {
      ClearMessage(msg);
      *st = Status::OutOfRange("HTTP: body of " + std::to_string(v) +
                               " bytes exceeds " +
                               std::to_string(kMaxHttpBodyBytes));
      return -1;
    }
    body_len = static_cast<size_t>(v);
  }
  const size_t msg_end = header_end + 4;
  if (buf.size() < msg_end + body_len) {
    ClearMessage(msg);
    return 0;
  }
  msg->body.assign(buf.substr(msg_end, body_len));
  pos_ += msg_end + body_len;  // pipelined bytes stay for the next parse
  return 1;
}

Status HttpConn::Read(HttpMessage* msg, bool* closed,
                      const ReadDeadlines& deadlines) {
  *closed = false;
  bool blocked = false;
  auto notify_block = [&]() -> Status {
    if (blocked || deadlines.on_block == nullptr || !*deadlines.on_block) {
      return Status::OK();
    }
    blocked = true;
    return (*deadlines.on_block)();
  };
  const auto start = std::chrono::steady_clock::now();
  auto last_progress = start;
  // Drop the messages consumed since the last Read: pipelined followers
  // are parsed by offset, so the buffer moves once per Read, and within
  // this call buf_ holds only unconsumed bytes.
  buf_.erase(0, pos_);
  pos_ = 0;

  while (true) {
    Status st = Status::OK();
    const int parsed = ParseBuffered(msg, &st);
    if (parsed < 0) return st;
    if (parsed > 0) return Status::OK();
    if (deadlines.drain != nullptr &&
        deadlines.drain->load(std::memory_order_relaxed) && buf_.empty()) {
      *closed = true;  // between messages; drain closes the connection
      return Status::OK();
    }
    PH_RETURN_IF_ERROR(notify_block());
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("HTTP: poll failed");
    }
    if (deadlines.stop != nullptr &&
        deadlines.stop->load(std::memory_order_relaxed)) {
      return Status::Internal("HTTP: server stopping");
    }
    if (pr == 0) {
      // Timeout slice: re-check stop/drain and the idle budget.
      if (deadlines.idle_timeout_ms > 0) {
        const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - last_progress);
        if (idle.count() >=
            static_cast<int64_t>(deadlines.idle_timeout_ms)) {
          if (buf_.empty()) {
            *closed = true;  // reap the idle keep-alive connection
            return Status::OK();
          }
          return Status::DataLoss("HTTP: peer idle mid-message");
        }
      }
      continue;
    }
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return Status::Internal("HTTP: recv failed");
    }
    if (n == 0) {
      if (buf_.empty()) {
        *closed = true;
        return Status::OK();
      }
      return Status::DataLoss("HTTP: connection closed mid-message");
    }
    buf_.append(chunk, static_cast<size_t>(n));
    last_progress = std::chrono::steady_clock::now();
  }
}

bool HttpConn::TryReadBuffered(HttpMessage* msg, Status* st) {
  *st = Status::OK();
  int parsed = ParseBuffered(msg, st);
  if (parsed != 0) return parsed > 0;
  // Opportunistic top-up: drain whatever already arrived, never wait.
  char chunk[8192];
  ssize_t n;
  while ((n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT)) > 0) {
    buf_.append(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(chunk)) break;
  }
  parsed = ParseBuffered(msg, st);
  return parsed > 0;
}

Status HttpConn::Write(const std::string& data) {
  PH_RETURN_IF_ERROR(failpoint::Fire("http.send").status);
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO expired: the peer stopped draining its socket.
        return Status::Internal("HTTP: send timed out");
      }
      return Status::Internal("HTTP: send failed");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace pairwisehist
