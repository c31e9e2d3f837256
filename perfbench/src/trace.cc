#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

std::atomic<bool> Tracer::enabled_{false};

namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<int64_t> stack;  ///< open span indices, innermost last
  uint64_t request = 0;
  std::mutex mu;               ///< guards spans against Collect()
};

std::mutex g_registry_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& Registry() {
  static auto* buffers = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *buffers;
}
std::atomic<uint64_t> g_next_request{1};

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    b->thread = static_cast<uint32_t>(Registry().size());
    Registry().push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SelfTimeNs(int64_t begin, int64_t end,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  if (end <= begin) return 0;
  for (auto& c : children) {
    c.first = std::max(c.first, begin);
    c.second = std::min(c.second, end);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t run_begin = 0, run_end = 0;
  bool open = false;
  for (const auto& [b, e] : children) {
    if (e <= b) continue;
    if (open && b <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = b;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return (end - begin) - covered;
}

void Tracer::SetRequest(uint64_t id) { LocalBuffer().request = id; }

uint64_t Tracer::NextRequestId() {
  return g_next_request.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::vector<SpanRecord>> Tracer::Collect() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    buffers = Registry();
  }
  std::vector<std::vector<SpanRecord>> out;
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lock(b->mu);
    out.push_back(b->spans);
  }
  return out;
}

size_t Tracer::SpanCount() {
  size_t n = 0;
  for (const auto& spans : Collect()) n += spans.size();
  return n;
}

std::map<std::string, SpanStats> Tracer::Summarize() {
  std::map<std::string, SpanStats> out;
  for (const auto& spans : Collect()) {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0 && s.end_ns > 0) {
        children[static_cast<size_t>(s.parent)].push_back(
            {s.start_ns, s.end_ns});
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      if (s.end_ns == 0) continue;  // still open
      SpanStats& st = out[s.name];
      ++st.count;
      st.total_ns += s.end_ns - s.start_ns;
      st.self_ns += SelfTimeNs(s.start_ns, s.end_ns, std::move(children[i]));
    }
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& spans : Collect()) {
    for (const SpanRecord& s : spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"thread\":%u,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                   s.name, s.thread, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& buf = LocalBuffer();
  SpanRecord rec;
  rec.name = name;
  rec.parent = buf.stack.empty() ? -1 : buf.stack.back();
  rec.request = buf.request;
  rec.thread = buf.thread;
  {
    std::lock_guard<std::mutex> lock(buf.mu);
    index_ = static_cast<int64_t>(buf.spans.size());
    buf.spans.push_back(rec);
  }
  buf.stack.push_back(index_);
  // Stamp the start last so the bookkeeping above is not charged to it.
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.spans[static_cast<size_t>(index_)].start_ns = now;
}

Span::~Span() {
  if (index_ < 0) return;
  const int64_t now = NowNs();
  ThreadBuffer& buf = LocalBuffer();
  {
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.spans[static_cast<size_t>(index_)].end_ns = now;
  }
  if (!buf.stack.empty() && buf.stack.back() == index_) buf.stack.pop_back();
}

}  // namespace perfbench
