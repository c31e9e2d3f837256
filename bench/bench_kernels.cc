// SIMD kernel benchmark: ns/element for every KernelOps entry per compiled
// tier at n = 16 / 256 / 4096, plus end-to-end prepared-query
// latency per shape with kernels forced to kScalar vs kAuto — the
// dispatch-level speedup the kernel layer buys on this machine. Emits
// BENCH_kernels.json for CI's perf trajectory.
//
// No google-benchmark dependency: self-calibrating timing loops, so this
// runs on bare machines (and in every CI configuration). Every figure is
// the median of five timing windows, and each end-to-end shape prints the
// spread of its windows, so a few-percent shift between two builds can be
// told from window-to-window noise.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "api/db.h"
#include "bench/bench_util.h"
#include "harness/metrics.h"
#include "common/rng.h"
#include "common/simd.h"
#include "query/engine.h"
#include "query/sql_parser.h"

using namespace pairwisehist;
using namespace pairwisehist::bench;

namespace {

// Microseconds per call of one measured body.
struct Timing {
  double us = 0;          ///< median over the windows
  double spread_pct = 0;  ///< (slowest - fastest window) / median, in %
};

constexpr int kWindows = 5;

// Doubles the repetitions until one window of calls lasts over 0.05 s,
// then times kWindows windows of that many calls (the calibrating window
// is the first).
template <typename F>
Timing TimePerCallUs(F&& body) {
  auto window = [&body](int reps) {
    const double t0 = NowSeconds();
    for (int i = 0; i < reps; ++i) body();
    return (NowSeconds() - t0) * 1e6 / reps;
  };
  int reps = 1;
  std::vector<double> us;
  for (;;) {
    const double per_call = window(reps);
    if (per_call * reps > 0.05e6 || reps >= (1 << 24)) {
      us.push_back(per_call);
      break;
    }
    reps *= 2;
  }
  while (us.size() < kWindows) us.push_back(window(reps));
  const auto [fastest, slowest] = std::minmax_element(us.begin(), us.end());
  Timing t;
  t.us = Median(us);
  t.spread_pct = t.us > 0 ? (*slowest - *fastest) / t.us * 100.0 : 0.0;
  return t;
}

volatile double g_sink = 0;  // keeps reductions observable

struct Shape {
  const char* name;
  const char* sql;
};

}  // namespace

int main() {
  Banner("SIMD kernels: ns/element per tier, end-to-end scalar-vs-auto");

  // ---- Microbenchmarks ----------------------------------------------------
  const size_t kSizes[] = {16, 256, 4096};
  const size_t kMaxN = 4096;
  Rng rng(17);
  std::vector<double> a(kMaxN), b(kMaxN), c(kMaxN), d(kMaxN), out(kMaxN);
  std::vector<double> lo(kMaxN), hi(kMaxN);
  // Identity operands keep the in-place combiners' values steady (no
  // drift into denormals over millions of repetitions).
  const std::vector<double> ones(kMaxN, 1.0), zeros(kMaxN, 0.0);
  std::vector<uint64_t> h(kMaxN), pre_b(kMaxN), pre_e(kMaxN);
  for (size_t i = 0; i < kMaxN; ++i) {
    a[i] = rng.Uniform(0, 3);
    b[i] = rng.Uniform(-2, 2);
    c[i] = rng.Uniform(-1, 4);
    d[i] = rng.Uniform(0, 1);
    h[i] = rng.UniformInt(5000);
    pre_b[i] = rng.UniformInt(100000);
    pre_e[i] = pre_b[i] + rng.UniformInt(5000);
  }

  std::string micro_json;
  auto emit_micro = [&](const char* tier, const char* kernel, size_t n,
                        double ns_per_elem) {
    char row[192];
    std::snprintf(row, sizeof(row),
                  "%s    {\"tier\": \"%s\", \"kernel\": \"%s\", \"n\": %zu, "
                  "\"ns_per_element\": %.4f}",
                  micro_json.empty() ? "" : ",\n", tier, kernel, n,
                  ns_per_elem);
    micro_json += row;
  };

  std::printf("%-8s %-20s %8s %8s %8s   (ns/element)\n", "tier", "kernel",
              "n=16", "n=256", "n=4096");
  for (const KernelOps* ks : SupportedKernels()) {
    struct Micro {
      const char* name;
      std::function<void(size_t)> run;
    };
    double o3[3], o2[2];
    const Micro micros[] = {
        {"sum", [&](size_t n) { g_sink = ks->sum(a.data(), 0, n); }},
        {"sum3",
         [&](size_t n) {
           ks->sum3(a.data(), b.data(), c.data(), 0, n, o3);
           g_sink = o3[0];
         }},
        {"dot", [&](size_t n) { g_sink = ks->dot(a.data(), c.data(), 0, n); }},
        {"dot3",
         [&](size_t n) {
           ks->dot3(a.data(), b.data(), c.data(), 0, n, o3);
           g_sink = o3[2];
         }},
        {"moments",
         [&](size_t n) {
           ks->moments(a.data(), c.data(), 0, n, o3);
           g_sink = o3[2];
         }},
        {"corner_bounds",
         [&](size_t n) {
           ks->corner_bounds(a.data(), d.data(), b.data(), c.data(), 0, n,
                             o2);
           g_sink = o2[0];
         }},
        {"prefix_sum",
         [&](size_t n) {
           ks->prefix_sum(a.data(), 0, n, out.data());
           g_sink = out[n - 1];
         }},
        {"find_first_gt",  // no match: scans the whole range
         [&](size_t n) { g_sink = ks->find_first_gt(a.data(), 0, n, 1e300); }},
        {"find_last_gt",
         [&](size_t n) { g_sink = ks->find_last_gt(a.data(), 0, n, 1e300); }},
        {"mul3",
         [&](size_t n) {
           ks->mul3(out.data(), lo.data(), hi.data(), ones.data(), ones.data(),
                    ones.data(), 0, n);
           g_sink = out[n - 1];
         }},
        {"or_mul3",
         [&](size_t n) {
           ks->or_mul3(out.data(), lo.data(), hi.data(), zeros.data(),
                       zeros.data(), zeros.data(), 0, n);
           g_sink = out[n - 1];
         }},
        {"complement3",
         [&](size_t n) {
           ks->complement3(out.data(), lo.data(), hi.data(), 0, n);
           g_sink = out[n - 1];
         }},
        {"weights_batch",  // one row, no covered runs, rho = 1
         [&](size_t n) {
           WeightRow row{h.data(), a.data(), b.data(), c.data(), out.data(),
                         lo.data(), hi.data(), 0, n, nullptr, 0};
           ks->weights_batch(&row, 1, 2.33, 0.9, 0);
           g_sink = out[n - 1];
         }},
        {"weights_batch_widen",  // the same row under sampling widening
         [&](size_t n) {
           WeightRow row{h.data(), d.data(), d.data(), d.data(), out.data(),
                         lo.data(), hi.data(), 0, n, nullptr, 0};
           ks->weights_batch(&row, 1, 2.33, 0.9, 1);
           g_sink = lo[n - 1];
         }},
        {"norm_prob3",
         [&](size_t n) {
           ks->norm_prob3(h.data(), a.data(), b.data(), c.data(), out.data(),
                          out.data(), out.data(), 0, n);
           g_sink = out[n - 1];
         }},
        {"run_mass3",
         [&](size_t n) {
           ks->run_mass3(pre_b.data(), pre_e.data(), out.data(), lo.data(),
                         hi.data(), 0, n);
           g_sink = out[n - 1];
         }},
        {"cell_axpy3",
         [&](size_t n) {
           ks->cell_axpy3(pre_b.data(), pre_e.data(), 0.3, 0.1, 0.9,
                          out.data(), lo.data(), hi.data(), 0, n);
           g_sink = out[n - 1];
         }},
    };
    for (const Micro& m : micros) {
      double ns[3];
      for (size_t si = 0; si < 3; ++si) {
        size_t n = kSizes[si];
        const double us = TimePerCallUs([&]() { m.run(n); }).us;
        ns[si] = us * 1000.0 / static_cast<double>(n);
        emit_micro(ks->name, m.name, n, ns[si]);
      }
      std::printf("%-8s %-20s %8.3f %8.3f %8.3f\n", ks->name, m.name, ns[0],
                  ns[1], ns[2]);
    }
  }

  // ---- End-to-end: prepared execution, kScalar vs kAuto -------------------
  const size_t rows = EnvSize("PH_SCALE_ROWS", 200000);
  DbOptions options;
  options.synopsis.sample_size = 0;  // rho = 1 (no Eq. 29 widening)
  auto db = Db::FromGenerator("power", rows, 71, options);
  if (!db.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  AqpEngineOptions scalar_opt;
  scalar_opt.kernels = KernelMode::kScalar;
  AqpEngine scalar_engine(&db->synopsis(), scalar_opt);
  AqpEngineOptions auto_opt;
  auto_opt.kernels = KernelMode::kAuto;
  AqpEngine auto_engine(&db->synopsis(), auto_opt);
  const char* auto_tier = GetKernels(KernelMode::kAuto).name;

  const Shape kShapes[] = {
      {"sum_same_col_range",
       "SELECT SUM(global_active_power) FROM power WHERE "
       "global_active_power > 0.3 AND global_active_power < 3;"},
      {"avg_same_col_range",
       "SELECT AVG(voltage) FROM power WHERE voltage > 234 AND "
       "voltage < 248;"},
      {"median_same_col_range",
       "SELECT MEDIAN(voltage) FROM power WHERE voltage > 234 AND "
       "voltage < 248;"},
      {"sum_three_pred",
       "SELECT SUM(global_active_power) FROM power WHERE hour >= 6 AND "
       "voltage > 236 AND global_intensity > 0.4;"},
      {"sum_five_pred",
       "SELECT SUM(global_active_power) FROM power WHERE hour >= 6 AND "
       "voltage > 236 AND global_intensity > 0.4 AND sub_metering_3 < 20 "
       "AND day_of_week < 6;"},
      {"avg_two_pred",
       "SELECT AVG(global_active_power) FROM power WHERE hour >= 18 AND "
       "voltage > 235;"},
      {"avg_cross_column",
       "SELECT AVG(global_active_power) FROM power WHERE hour >= 18;"},
      {"median_two_pred",
       "SELECT MEDIAN(global_active_power) FROM power WHERE hour < 12 AND "
       "voltage > 235;"},
      {"median_cross_column",
       "SELECT MEDIAN(global_active_power) FROM power WHERE hour < 12;"},
      {"count_single_pred",
       "SELECT COUNT(voltage) FROM power WHERE voltage > 240;"},
      {"count_or_pred",
       "SELECT COUNT(voltage) FROM power WHERE hour < 4 OR hour > 20;"},
      {"var_two_pred",
       "SELECT VAR(voltage) FROM power WHERE voltage > 238 AND hour >= 6;"},
      {"no_predicate_avg", "SELECT AVG(voltage) FROM power;"},
  };

  std::printf("\n%-22s %12s %8s %12s %8s %9s   (prepared ExecuteInto, "
              "median of %d windows and their spread)\n",
              "shape", "scalar us", "spread", "auto us", "spread", "speedup",
              kWindows);
  std::string shapes_json;
  std::vector<double> speedups;       // all shapes
  std::vector<double> core_speedups;  // the SUM/AVG/MEDIAN target shapes
  double scalar_sum_us = 0, auto_sum_us = 0;  // sums of per-shape medians
  for (const Shape& shape : kShapes) {
    auto q = ParseSql(shape.sql);
    if (!q.ok()) {
      std::fprintf(stderr, "parse failed: %s\n", shape.sql);
      return 1;
    }
    auto scalar_plan = scalar_engine.Compile(*q);
    auto auto_plan = auto_engine.Compile(*q);
    if (!scalar_plan.ok() || !auto_plan.ok()) {
      std::fprintf(stderr, "compile failed: %s\n", shape.sql);
      return 1;
    }
    QueryResult reused;
    const Timing scalar = TimePerCallUs([&]() {
      Status st = scalar_engine.ExecuteInto(scalar_plan.value(), &reused);
      (void)st;
    });
    const Timing fast = TimePerCallUs([&]() {
      Status st = auto_engine.ExecuteInto(auto_plan.value(), &reused);
      (void)st;
    });
    const double scalar_us = scalar.us;
    const double auto_us = fast.us;
    scalar_sum_us += scalar_us;
    auto_sum_us += auto_us;
    double speedup = auto_us > 0 ? scalar_us / auto_us : 0.0;
    speedups.push_back(speedup);
    std::string name(shape.name);
    if (name.rfind("sum_", 0) == 0 || name.rfind("avg_", 0) == 0 ||
        name.rfind("median_", 0) == 0) {
      core_speedups.push_back(speedup);
    }
    std::printf("%-22s %12.3f %7.1f%% %12.3f %7.1f%% %8.2fx\n", shape.name,
                scalar_us, scalar.spread_pct, auto_us, fast.spread_pct,
                speedup);
    char row[320];
    std::snprintf(row, sizeof(row),
                  "%s    {\"name\": \"%s\", \"scalar_us\": %.4f, "
                  "\"scalar_spread_pct\": %.1f, \"auto_us\": %.4f, "
                  "\"auto_spread_pct\": %.1f, \"speedup\": %.3f}",
                  shapes_json.empty() ? "" : ",\n", shape.name, scalar_us,
                  scalar.spread_pct, auto_us, fast.spread_pct, speedup);
    shapes_json += row;
  }

  std::printf("%-22s %12.3f %8s %12.3f\n", "sum of shapes", scalar_sum_us,
              "", auto_sum_us);
  double med_all = Median(speedups);
  double med_core = Median(core_speedups);
  std::printf(
      "\nauto tier: %s   median speedup: %.2fx (all)  %.2fx "
      "(SUM/AVG/MEDIAN shapes)\n",
      auto_tier, med_all, med_core);

  char head[320];
  std::snprintf(head, sizeof(head),
                "{\n  \"bench\": \"kernels\",\n  \"scale_rows\": %zu,\n"
                "  \"auto_tier\": \"%s\",\n"
                "  \"median_speedup\": %.3f,\n"
                "  \"median_speedup_sum_avg_median\": %.3f,\n"
                "  \"shapes\": [\n",
                rows, auto_tier, med_all, med_core);
  WriteBenchJson("BENCH_kernels.json", std::string(head) + shapes_json +
                                           "\n  ],\n  \"micro\": [\n" +
                                           micro_json + "\n  ]\n}");
  return 0;
}
