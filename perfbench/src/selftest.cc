// Self-tests for the benchmark's own statistics (stats.h, trace.h). Run by
// `python3 perfbench/run.py --selftest` and before every benchmark run; a
// failure exits non-zero and the benchmark reports nothing.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int g_checks = 0;
int g_failures = 0;

void Check(bool ok, const char* what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

void TestPercentileChoice() {
  using perfbench::SupportedTailQuantile;
  // 1000 samples leave exactly 10 beyond p99: p99 is supported.
  Check(Near(SupportedTailQuantile(1000), 0.99), "p99 at n=1000");
  Check(Near(SupportedTailQuantile(100000), 0.99), "p99 capped at wanted");
  // 500 samples support only p98 (10 beyond it), 200 only p95.
  Check(Near(SupportedTailQuantile(500), 0.98), "p98 at n=500");
  Check(Near(SupportedTailQuantile(200), 0.95), "p95 at n=200");
  // Too few samples to leave 10 beyond the median: fall back to p50.
  Check(Near(SupportedTailQuantile(15), 0.5), "p50 fallback at n=15");
  Check(Near(SupportedTailQuantile(0), 0.5), "p50 fallback at n=0");

  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  perfbench::LatencySummary s = perfbench::Summarize(v);
  Check(s.n == 200, "summary sample count");
  Check(Near(s.p50, 100.5), "summary median");
  Check(Near(s.tail_q, 0.95), "summary tail quantile");
  // Interpolated p95 of 1..200: position 0.95 * 199 = 189.05.
  Check(Near(s.tail, 190.05), "summary tail value");
  int beyond = 0;
  for (double x : v) beyond += x > s.tail;
  Check(beyond >= 10, "at least ten samples beyond the tail");

  // Three 1-second windows of 200 samples; the middle one is a burst of
  // slow samples. Medians over windows ignore the burst.
  std::vector<perfbench::TimedSample> timed;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 200; ++i) {
      const double value = (w == 1 ? 1000.0 : 0.0) + (i + 1);
      timed.push_back({w + (i + 0.5) / 200.0, value});
    }
  }
  timed.push_back({5.0, 1e9});  // outside the phase: ignored
  perfbench::WindowedSummary ws =
      perfbench::SummarizeWindows(timed, 0, 3, 3, 0.5);
  Check(ws.windows == 3 && ws.n == 601, "windowed counts");
  Check(Near(ws.p50, 100.5), "windowed median ignores a burst");
  Check(Near(ws.tail_q, 0.95), "windowed tail from the smallest window");
  Check(Near(ws.tail, 190.05), "windowed tail ignores a burst");
  Check(Near(ws.rate, 200.0), "windowed rate");

  // Four windows, the middle two slowed 1.5x with a third fewer samples:
  // the quieter quarter sees neither the slow values nor the lower rate.
  timed.clear();
  for (int w = 0; w < 4; ++w) {
    const bool slow = w == 1 || w == 2;
    const int n = slow ? 200 : 300;
    for (int i = 0; i < n; ++i) {
      timed.push_back({w + (i + 0.5) / n, (slow ? 1.5 : 1.0) * (100 + i % 3)});
    }
  }
  ws = perfbench::SummarizeWindows(timed, 0, 4, 4, 0.25);
  Check(Near(ws.p50, 101.0), "quiet quantile ignores slow windows");
  Check(Near(ws.rate, 300.0), "quiet rate ignores slow windows");
  ws = perfbench::SummarizeWindows(timed, 0, 4, 4, 0.5);
  Check(ws.p50 > 101.0 && ws.rate < 300.0, "median over windows does not");
}

void TestOpenLoop() {
  using perfbench::DueTime;
  using perfbench::OpenLoopSample;
  // 10 ms schedule; the 3rd operation stalls for 35 ms, so the next two
  // start late and their latency includes the wait behind the stall.
  const double t0 = 100.0, iv = 0.010;
  std::vector<OpenLoopSample> ops;
  double free_at = t0;
  const double busy[] = {0.002, 0.002, 0.035, 0.002, 0.002, 0.002, 0.002, 0.002};
  for (size_t i = 0; i < 8; ++i) {
    OpenLoopSample s;
    s.due = DueTime(t0, iv, i);
    s.start = std::max(s.due, free_at);
    s.end = s.start + busy[i];
    free_at = s.end;
    ops.push_back(s);
  }
  Check(Near(ops[2].Latency(), 0.035), "stalled op latency");
  Check(Near(ops[2].Lag(), 0.0), "stalled op started on time");
  // Op 3 was due at +30 ms, started at +55 ms: 25 ms lag, 27 ms latency.
  Check(Near(ops[3].Lag(), 0.025), "lag behind a stall");
  Check(Near(ops[3].Latency(), 0.027), "due-time latency behind a stall");
  Check(Near(ops[3].Busy(), 0.002), "busy time excludes the wait");
  // Op 4: due +40, start +57, so latency 19 ms — the stall still shows.
  Check(Near(ops[4].Latency(), 0.019), "stall charged to later ops");
  // The lag decays by the 8 ms of slack per slot: 9 ms, then 1 ms, then
  // op 7 (due +70) finds the generator idle.
  Check(Near(ops[5].Lag(), 0.009), "lag decays behind a stall");
  Check(Near(ops[6].Lag(), 0.001), "lag decays further");
  Check(Near(ops[7].Lag(), 0.0), "generator caught up");
}

void TestSelfTime() {
  using perfbench::SelfTimeNs;
  Check(SelfTimeNs(0, 100, {}) == 100, "leaf self time");
  // Nested children: [10,50) contains [20,30); coverage is 40.
  Check(SelfTimeNs(0, 100, {{10, 50}, {20, 30}}) == 60, "nested children");
  // Overlapping children [10,40) and [30,60): union 50.
  Check(SelfTimeNs(0, 100, {{30, 60}, {10, 40}}) == 50,
        "overlapping children");
  // Disjoint children plus one sticking out past the parent's end.
  Check(SelfTimeNs(0, 100, {{0, 10}, {20, 30}, {90, 150}}) == 70,
        "disjoint and clipped children");
  Check(SelfTimeNs(0, 100, {{-50, 200}}) == 0, "fully covered parent");

  // Through the tracer: parent with two sequential children.
  perfbench::Tracer::Enable(true);
  {
    perfbench::Span parent("selftest.parent");
    { perfbench::Span child("selftest.child"); }
    { perfbench::Span child("selftest.child"); }
  }
  perfbench::Tracer::Enable(false);
  auto summary = perfbench::Tracer::Summarize();
  const perfbench::SpanStats& p = summary["selftest.parent"];
  const perfbench::SpanStats& c = summary["selftest.child"];
  Check(p.count == 1 && c.count == 2, "span counts");
  Check(p.self_ns == p.total_ns - c.total_ns, "parent self = total - children");

  // A per-thread switch overrides the process-wide one both ways.
  perfbench::Tracer::Enable(true);
  perfbench::Tracer::EnableThisThread(0);
  { perfbench::Span s("selftest.thread_off"); }
  perfbench::Tracer::Enable(false);
  perfbench::Tracer::EnableThisThread(1);
  { perfbench::Span s("selftest.thread_on"); }
  perfbench::Tracer::EnableThisThread(-1);
  { perfbench::Span s("selftest.thread_default"); }
  const auto threads = perfbench::Tracer::Summarize();
  Check(threads.count("selftest.thread_off") == 0, "thread switch off wins");
  Check(threads.count("selftest.thread_on") == 1 &&
            threads.at("selftest.thread_on").count == 1,
        "thread switch on wins");
  Check(threads.count("selftest.thread_default") == 0,
        "thread switch -1 follows the process");
}

void TestRelErr() {
  using perfbench::RelErrPct;
  Check(Near(RelErrPct(200, 210, 1), 5.0), "plain relative error");
  // Exact answer 0: the sanity bound, not 0, is the denominator.
  Check(Near(RelErrPct(0, 0.5, 10), 5.0), "sanity bound at exact zero");
  // Tiny exact answer: bounded by the sanity denominator too.
  Check(Near(RelErrPct(1e-9, 2.0, 100), 2.0), "sanity bound near zero");
  Check(Near(RelErrPct(-50, -40, 1), 20.0), "negative exact answer");
  Check(Near(perfbench::WidthPct(100, 90, 130, 1), 40.0), "width pct");
  Check(perfbench::BoundsHold(5, 4, 6), "bounds hold");
  Check(!perfbench::BoundsHold(7, 4, 6), "bounds miss");
  Check(perfbench::BoundsHold(1.0, 1.0 + 1e-12, 2.0), "bounds rounding slack");
}

}  // namespace

int main() {
  TestPercentileChoice();
  TestOpenLoop();
  TestSelfTime();
  TestRelErr();
  std::printf("selftest: %d/%d checks passed\n", g_checks - g_failures,
              g_checks);
  return g_failures == 0 ? 0 : 1;
}
