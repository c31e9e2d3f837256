// In-memory span tracing for the benchmark's traced run.
//
// The benchmark wraps each call it makes into a layer's public function in
// a Span named "<layer>.<function>" (serve, api, query, core, gd, storage)
// and each of its own steps in a span named after the workload. A span
// records its name, start, end, parent (the enclosing span on the same
// thread) and request id. Spans stay in per-thread buffers until the run
// ends; Summarize() folds them into per-name counts and self time (span
// minus the part of it covered by its children) and WriteJsonl() dumps
// them. While tracing is off a Span costs a thread-local read and at most
// one relaxed atomic load.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds.
int64_t NowNs();

/// The length of [begin, end) not covered by any of `children` (clipped to
/// the parent's interval; children may nest or overlap each other).
int64_t SelfTimeNs(int64_t begin, int64_t end,
                   std::vector<std::pair<int64_t, int64_t>> children);

struct SpanRecord {
  const char* name = nullptr;  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< index in the same thread's buffer, -1 = root
  uint64_t request = 0;  ///< request id (0 = none)
  uint32_t thread = 0;
};

struct SpanStats {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  double MeanSelfUs() const {
    return count == 0 ? 0.0 : static_cast<double>(self_ns) / 1e3 / count;
  }
  double MeanUs() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / 1e3 / count;
  }
};

class Tracer {
 public:
  static void Enable(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  /// Overrides Enable() for spans opened on the calling thread: 1 on,
  /// 0 off, -1 (the default) follows the process-wide switch. Lets one
  /// thread alternate traced and untraced slots while others stay traced.
  static void EnableThisThread(int on) { thread_override_ = on; }
  static bool enabled() {
    return thread_override_ >= 0 ? thread_override_ == 1
                                 : enabled_.load(std::memory_order_relaxed);
  }

  /// Sets the request id later spans on this thread carry.
  static void SetRequest(uint64_t id);
  static uint64_t NextRequestId();

  /// Every span recorded so far, thread by thread.
  static std::vector<std::vector<SpanRecord>> Collect();
  /// Per-name count, total and self time over every finished span.
  static std::map<std::string, SpanStats> Summarize();
  /// One JSON object per span; returns false when the file cannot be
  /// written.
  static bool WriteJsonl(const std::string& path);
  /// Total spans recorded.
  static size_t SpanCount();

 private:
  friend class Span;
  static std::atomic<bool> enabled_;
  inline static thread_local int thread_override_ = -1;
};

/// RAII span: records [construction, destruction) under `name` (a string
/// literal) when tracing is enabled.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
