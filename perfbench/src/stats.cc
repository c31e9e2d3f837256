#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double SupportedTailQuantile(size_t n, double wanted, size_t min_beyond) {
  if (n <= 2 * min_beyond) return 0.5;
  const double supported =
      1.0 - static_cast<double>(min_beyond) / static_cast<double>(n);
  return std::max(0.5, std::min(wanted, supported));
}

std::string LatencySummary::Describe(const char* unit) const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p50=%.4g%s p%.4g=%.4g%s (n=%zu)", p50, unit,
                tail_q * 100.0, tail, unit, n);
  return buf;
}

LatencySummary Summarize(const std::vector<double>& values,
                         double wanted_tail) {
  LatencySummary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.p50 = Quantile(values, 0.5);
  s.tail_q = SupportedTailQuantile(values.size(), wanted_tail);
  s.tail = Quantile(values, s.tail_q);
  return s;
}

std::string WindowedSummary::Describe(const char* unit) const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "p50=%.4g%s p%.4g=%.4g%s rate=%.6g/s (n=%zu, q%.2g of %zu "
                "windows)",
                p50, unit, tail_q * 100.0, tail, unit, rate, n, quiet,
                windows);
  return buf;
}

WindowedSummary SummarizeWindows(const std::vector<TimedSample>& samples,
                                 double begin, double end, size_t windows,
                                 double quiet, double wanted_tail) {
  WindowedSummary s;
  s.n = samples.size();
  s.windows = windows;
  s.quiet = quiet;
  if (windows == 0 || end <= begin) return s;
  const double width = (end - begin) / static_cast<double>(windows);
  std::vector<std::vector<double>> by_window(windows);
  for (const TimedSample& x : samples) {
    if (x.t < begin || x.t >= end) continue;
    const size_t w = std::min(
        windows - 1, static_cast<size_t>((x.t - begin) / width));
    by_window[w].push_back(x.v);
  }
  size_t smallest = samples.size();
  for (const auto& w : by_window) smallest = std::min(smallest, w.size());
  s.tail_q = SupportedTailQuantile(smallest, wanted_tail);
  std::vector<double> p50s, tails, rates;
  for (const auto& w : by_window) {
    rates.push_back(static_cast<double>(w.size()) / width);
    if (w.empty()) continue;
    p50s.push_back(Quantile(w, 0.5));
    tails.push_back(Quantile(w, s.tail_q));
  }
  s.p50 = Quantile(p50s, quiet);
  s.tail = Quantile(tails, quiet);
  s.rate = Quantile(rates, 1.0 - quiet);
  return s;
}

double DueTime(double schedule_start, double interval, size_t i) {
  return schedule_start + interval * static_cast<double>(i);
}

double RelErrPct(double exact, double estimate, double sanity) {
  return 100.0 * std::fabs(estimate - exact) /
         std::max(std::fabs(exact), sanity);
}

double WidthPct(double exact, double lower, double upper, double sanity) {
  return 100.0 * std::fabs(upper - lower) / std::max(std::fabs(exact), sanity);
}

bool BoundsHold(double exact, double lower, double upper, double rel_tol) {
  const double slack =
      rel_tol * std::max({std::fabs(lower), std::fabs(upper), 1.0});
  return lower - slack <= exact && exact <= upper + slack;
}

}  // namespace perfbench
