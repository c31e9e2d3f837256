// The benchmark's own statistics: percentile choice, open-loop latency
// from due times, relative error with a sanity bound, and spread. Pure
// functions with no dependency on the library under test, so the
// self-tests (selftest.cc) check them in isolation.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile q in [0, 1] of `values` (sorted or not).
/// NaN when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The tail quantile a sample of `n` supports: the highest q <= `wanted`
/// that leaves at least `min_beyond` samples strictly above it, i.e.
/// q = min(wanted, 1 - min_beyond / n). A sample too small to leave
/// `min_beyond` samples above its median falls back to the median (0.5).
double SupportedTailQuantile(size_t n, double wanted = 0.99,
                             size_t min_beyond = 10);

/// A latency distribution: median plus the supported tail quantile, with
/// the sample count the tail was chosen from.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0;
  double tail_q = 0;  ///< the quantile `tail` reports (e.g. 0.99)
  double tail = 0;
  /// "p50=… p99=… (n=…)" in `unit`, naming the tail quantile actually used.
  std::string Describe(const char* unit) const;
};
LatencySummary Summarize(const std::vector<double>& values,
                         double wanted_tail = 0.99);

/// A sample stamped with the time it completed.
struct TimedSample {
  double t = 0;
  double v = 0;
};

/// A measured phase split into equal time windows, each summarized on
/// its own. Each latency figure is the `quiet`-quantile of its per-window
/// values and the rate the (1 - `quiet`)-quantile, i.e. what the quieter
/// windows saw: with `quiet` = 0.1, interference that slows up to nine
/// tenths of the windows does not move the figures, while a change to
/// the program moves every window. The tail quantile is the one the
/// smallest window supports.
struct WindowedSummary {
  size_t n = 0;        ///< samples in the phase
  size_t windows = 0;
  double quiet = 0.5;  ///< quantile taken over the windows
  double p50 = 0;
  double tail_q = 0;
  double tail = 0;
  double rate = 0;     ///< samples per second
  std::string Describe(const char* unit) const;
};
WindowedSummary SummarizeWindows(const std::vector<TimedSample>& samples,
                                 double begin, double end, size_t windows,
                                 double quiet, double wanted_tail = 0.99);

/// Open-loop schedule: operation i is due at start + i * interval. Its
/// latency counts from the due time, so a stall also charges the wait it
/// imposes on every operation queued behind it; the generator's lag is how
/// late it actually started the operation.
struct OpenLoopSample {
  double due = 0;    ///< when the operation should have started
  double start = 0;  ///< when the generator started it
  double end = 0;    ///< when it completed
  double Latency() const { return end - due; }
  double Lag() const { return start > due ? start - due : 0.0; }
  double Busy() const { return end - start; }
};
double DueTime(double schedule_start, double interval, size_t i);

/// Relative error in percent with a sanity bound (Cormode & Garofalakis):
/// |estimate - exact| / max(|exact|, sanity). The bound keeps near-zero
/// exact answers from dominating the metric. `sanity` must be > 0.
double RelErrPct(double exact, double estimate, double sanity);

/// Bound width (upper - lower) relative to the exact answer, in percent,
/// under the same sanity bound.
double WidthPct(double exact, double lower, double upper, double sanity);

/// True when exact lies inside [lower, upper], allowing for rounding of
/// the bounds at `rel_tol` of their magnitude.
bool BoundsHold(double exact, double lower, double upper,
                double rel_tol = 1e-9);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
