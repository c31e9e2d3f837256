// Cross-dataset property sweeps: invariants that must hold on every
// dataset and across randomized workloads (parameterized gtest, TEST_P).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "core/pairwise_hist.h"
#include "datagen/datasets.h"
#include "gd/greedy_gd.h"
#include "harness/metrics.h"
#include "harness/workload.h"
#include "query/engine.h"
#include "query/exact.h"
#include "query/sql_parser.h"

namespace pairwisehist {
namespace {

// ---------------------------------------------------------------------------
// Synopsis structural invariants on every dataset.

class SynopsisProperties : public ::testing::TestWithParam<DatasetSpec> {
 protected:
  static constexpr size_t kRows = 4000;
};

TEST_P(SynopsisProperties, BuildSerializeRoundTrip) {
  auto t = MakeDataset(GetParam().name, kRows, 80);
  ASSERT_TRUE(t.ok());
  PairwiseHistConfig cfg;
  cfg.sample_size = 2000;
  auto ph = PairwiseHist::BuildFromTable(*t, cfg);
  ASSERT_TRUE(ph.ok()) << ph.status().ToString();
  auto back = PairwiseHist::Deserialize(ph->Serialize());
  ASSERT_TRUE(back.ok()) << GetParam().name << ": "
                         << back.status().ToString();
  EXPECT_EQ(back->Serialize(), ph->Serialize()) << GetParam().name;
}

TEST_P(SynopsisProperties, HistogramInvariants) {
  auto t = MakeDataset(GetParam().name, kRows, 81);
  ASSERT_TRUE(t.ok());
  PairwiseHistConfig cfg;
  cfg.sample_size = 0;
  auto ph = PairwiseHist::BuildFromTable(*t, cfg);
  ASSERT_TRUE(ph.ok());
  for (size_t c = 0; c < ph->num_columns(); ++c) {
    const HistogramDim& h = ph->hist1d(c);
    ASSERT_GE(h.NumBins(), 1u);
    // Total count equals the column's non-null count.
    EXPECT_EQ(h.TotalCount(), t->column(c).non_null_count())
        << GetParam().name << " col " << c;
    for (size_t b = 0; b < h.NumBins(); ++b) {
      ASSERT_LT(h.edges[b], h.edges[b + 1]);
      if (h.counts[b] > 0) {
        ASSERT_LE(h.v_min[b], h.v_max[b]);
        ASSERT_GE(h.unique[b], 1u);
        ASSERT_LE(h.unique[b], h.counts[b]);
      }
    }
  }
}

TEST_P(SynopsisProperties, PairMarginalsMatchCells) {
  auto t = MakeDataset(GetParam().name, kRows, 82);
  ASSERT_TRUE(t.ok());
  PairwiseHistConfig cfg;
  cfg.sample_size = 2000;
  auto ph = PairwiseHist::BuildFromTable(*t, cfg);
  ASSERT_TRUE(ph.ok());
  for (size_t p = 0; p < ph->num_pairs(); ++p) {
    const PairHistogram& pair = ph->pair_at(p);
    size_t ki = pair.dim_i.NumBins(), kj = pair.dim_j.NumBins();
    for (size_t ti = 0; ti < ki; ++ti) {
      uint64_t sum = 0;
      for (size_t tj = 0; tj < kj; ++tj) sum += pair.CellCount(ti, tj);
      ASSERT_EQ(sum, pair.dim_i.counts[ti])
          << GetParam().name << " pair " << p << " row " << ti;
    }
  }
}

TEST_P(SynopsisProperties, GdSeededBuildWorksEverywhere) {
  auto t = MakeDataset(GetParam().name, kRows, 83);
  ASSERT_TRUE(t.ok());
  auto gd = CompressTable(*t);
  ASSERT_TRUE(gd.ok()) << GetParam().name;
  PairwiseHistConfig cfg;
  cfg.sample_size = 2000;
  auto ph = PairwiseHist::BuildFromCompressed(*gd, cfg);
  ASSERT_TRUE(ph.ok()) << GetParam().name << ": " << ph.status().ToString();
  AqpEngine engine(&ph.value());
  // COUNT(*) must reproduce the row count exactly.
  auto r = engine.ExecuteSql("SELECT COUNT(*) FROM t;");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->Scalar().estimate, static_cast<double>(kRows));
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, SynopsisProperties, ::testing::ValuesIn(AllDatasets()),
    [](const ::testing::TestParamInfo<DatasetSpec>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Randomized workload properties on representative datasets.

struct WorkloadCase {
  const char* dataset;
  uint64_t seed;
};

class WorkloadProperties : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(WorkloadProperties, CountEstimatesTrackExactAndBoundsHold) {
  auto t = MakeDataset(GetParam().dataset, 12000, GetParam().seed);
  ASSERT_TRUE(t.ok());
  PairwiseHistConfig cfg;
  cfg.sample_size = 0;  // full-data build isolates estimator error
  auto ph = PairwiseHist::BuildFromTable(*t, cfg);
  ASSERT_TRUE(ph.ok());
  AqpEngine engine(&ph.value());

  WorkloadConfig wcfg = InitialWorkloadConfig(GetParam().seed + 1);
  wcfg.num_queries = 30;
  wcfg.min_selectivity = 1e-3;
  auto workload = GenerateWorkload(*t, wcfg);
  ASSERT_TRUE(workload.ok());
  ASSERT_GE(workload->size(), 15u);

  std::vector<double> errors;
  size_t bounds_correct = 0, bounds_total = 0;
  for (const Query& q : *workload) {
    auto exact = ExecuteExact(*t, q);
    auto approx = engine.Execute(q);
    ASSERT_TRUE(exact.ok()) << q.ToSql();
    ASSERT_TRUE(approx.ok()) << q.ToSql() << ": "
                             << approx.status().ToString();
    const AggResult& e = exact->Scalar();
    const AggResult& a = approx->Scalar();
    if (e.empty_selection || a.empty_selection) continue;
    errors.push_back(RelativeErrorPct(e.estimate, a.estimate));
    ++bounds_total;
    if (e.estimate >= a.lower - 1e-6 * std::fabs(e.estimate) &&
        e.estimate <= a.upper + 1e-6 * std::fabs(e.estimate)) {
      ++bounds_correct;
    }
  }
  ASSERT_GE(errors.size(), 10u);
  EXPECT_LT(Median(errors), 5.0) << GetParam().dataset;
  // Bounds correctness: the paper reports 70–80% on sampled synopses;
  // full-data construction should reach at least that.
  EXPECT_GE(bounds_correct * 100, bounds_total * 60)
      << GetParam().dataset << ": " << bounds_correct << "/" << bounds_total;
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, WorkloadProperties,
    ::testing::Values(WorkloadCase{"power", 90}, WorkloadCase{"gas", 91},
                      WorkloadCase{"light", 92}, WorkloadCase{"temp", 93},
                      WorkloadCase{"build", 94}),
    [](const ::testing::TestParamInfo<WorkloadCase>& info) {
      return std::string(info.param.dataset);
    });

// ---------------------------------------------------------------------------
// Parameter-direction properties (Fig. 9's qualitative claims).

TEST(ParameterProperties, SmallerMNeverColdersAccuracy) {
  // Smaller M (deeper refinement) should not make median COUNT error
  // meaningfully worse.
  Table t = MakeFurnace(15000, 95);
  WorkloadConfig wcfg = InitialWorkloadConfig(96);
  wcfg.num_queries = 25;
  wcfg.min_selectivity = 1e-3;
  auto workload = GenerateWorkload(t, wcfg);
  ASSERT_TRUE(workload.ok());

  auto median_error = [&](uint64_t m) {
    PairwiseHistConfig cfg;
    cfg.sample_size = 0;
    cfg.min_points_override = m;
    auto ph = PairwiseHist::BuildFromTable(t, cfg);
    EXPECT_TRUE(ph.ok());
    AqpEngine engine(&ph.value());
    std::vector<double> errors;
    for (const Query& q : *workload) {
      auto exact = ExecuteExact(t, q);
      auto approx = engine.Execute(q);
      if (!exact.ok() || !approx.ok()) continue;
      if (exact->Scalar().empty_selection) continue;
      errors.push_back(RelativeErrorPct(exact->Scalar().estimate,
                                        approx->Scalar().estimate));
    }
    return Median(errors);
  };
  double err_fine = median_error(150);
  double err_coarse = median_error(7500);
  EXPECT_LE(err_fine, err_coarse * 1.5 + 0.5)
      << "fine " << err_fine << " vs coarse " << err_coarse;
}

TEST(ParameterProperties, LargerSampleImprovesOrMatchesAccuracy) {
  Table t = MakePower(30000, 97);
  WorkloadConfig wcfg = InitialWorkloadConfig(98);
  wcfg.num_queries = 25;
  wcfg.min_selectivity = 1e-2;
  auto workload = GenerateWorkload(t, wcfg);
  ASSERT_TRUE(workload.ok());

  auto median_error = [&](size_t ns) {
    PairwiseHistConfig cfg;
    cfg.sample_size = ns;
    auto ph = PairwiseHist::BuildFromTable(t, cfg);
    EXPECT_TRUE(ph.ok());
    AqpEngine engine(&ph.value());
    std::vector<double> errors;
    for (const Query& q : *workload) {
      auto exact = ExecuteExact(t, q);
      auto approx = engine.Execute(q);
      if (!exact.ok() || !approx.ok()) continue;
      if (exact->Scalar().empty_selection) continue;
      errors.push_back(RelativeErrorPct(exact->Scalar().estimate,
                                        approx->Scalar().estimate));
    }
    return Median(errors);
  };
  double err_small = median_error(1500);
  double err_large = median_error(24000);
  EXPECT_LE(err_large, err_small * 1.25 + 0.25)
      << "large " << err_large << " vs small " << err_small;
}

// ---------------------------------------------------------------------------
// Answer contract under aggregation-column clips. When the aggregation
// column carries its own predicate, the engine clips each bin it cuts to
// the predicate; every aggregate must still answer with finite values,
// lower <= estimate <= upper and a non-negative COUNT — on one or four
// segments and on the scalar and widest kernel tiers.

void ExpectContract(const AggResult& r, AggFunc func, const std::string& sql) {
  EXPECT_TRUE(std::isfinite(r.estimate) && std::isfinite(r.lower) &&
              std::isfinite(r.upper))
      << sql << " -> " << r.estimate << " [" << r.lower << ", " << r.upper
      << "]";
  EXPECT_LE(r.lower, r.estimate) << sql;
  EXPECT_LE(r.estimate, r.upper) << sql;
  if (func == AggFunc::kCount) EXPECT_GE(r.lower, 0.0) << sql;
}

class ClipSweepProperties
    : public ::testing::TestWithParam<std::tuple<size_t, KernelMode>> {};

TEST_P(ClipSweepProperties, BoundsBracketEstimate) {
  const auto [segments, kernels] = GetParam();
  // Large enough that dense bins get tight Theorem-1 bounds: with fewer
  // rows the raw bounds are wide enough to hide a mis-centred clipped bin.
  const size_t rows = 200000;
  Table t = MakePower(rows, 1);
  DbOptions opt;
  opt.compress = true;
  opt.target_segment_rows = segments > 1 ? rows / segments : 0;
  opt.engine.kernels = kernels;
  auto db = Db::FromTable(t, opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  const struct {
    const char* name;
    AggFunc func;
  } kFuncs[] = {{"COUNT", AggFunc::kCount}, {"SUM", AggFunc::kSum},
                {"AVG", AggFunc::kAvg},     {"VAR", AggFunc::kVar},
                {"MIN", AggFunc::kMin},     {"MAX", AggFunc::kMax},
                {"MEDIAN", AggFunc::kMedian}};
  const char* kColumns[] = {"global_active_power", "global_reactive_power",
                            "voltage",             "global_intensity",
                            "sub_metering_2",      "sub_metering_3"};
  const char* kOps[] = {"<", "<=", ">", ">="};
  const char* kHour[] = {"hour < 16", "hour >= 8"};
  size_t answered = 0;
  for (const char* col : kColumns) {
    // Ten literals at the column's deciles (mid-bucket), so the clip cuts
    // bins across the whole value range, dense and sparse alike.
    auto idx = t.ColumnIndex(col);
    ASSERT_TRUE(idx.ok()) << col;
    const Column& c = t.column(*idx);
    std::vector<double> vals;
    for (size_t r = 0; r < c.size(); ++r) {
      if (!c.IsNull(r)) vals.push_back(c.Value(r));
    }
    std::sort(vals.begin(), vals.end());
    for (int d = 0; d < 10; ++d) {
      const double lit = vals[(vals.size() * (2 * d + 1)) / 20];
      for (const char* op : kOps) {
        for (const char* hour : kHour) {
          for (const auto& f : kFuncs) {
            char sql[256];
            std::snprintf(sql, sizeof(sql),
                          "SELECT %s(%s) FROM power WHERE %s AND %s %s %.10g;",
                          f.name, col, hour, col, op, lit);
            auto res = db->ExecuteSql(sql);
            ASSERT_TRUE(res.ok()) << sql << ": " << res.status().ToString();
            const AggResult& r = res->Scalar();
            if (r.empty_selection) continue;
            ++answered;
            ExpectContract(r, f.func, sql);
          }
        }
      }
    }
  }
  EXPECT_GT(answered, 2000u);
}

INSTANTIATE_TEST_SUITE_P(
    SegmentsAndKernels, ClipSweepProperties,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Values(KernelMode::kScalar,
                                         KernelMode::kAuto)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, KernelMode>>& info) {
      return std::to_string(std::get<0>(info.param)) + "seg_" +
             (std::get<1>(info.param) == KernelMode::kScalar ? "scalar"
                                                             : "auto");
    });

// Directed statements on 200k power rows with a GD-compressed build. The
// SUM is the statement that first exposed the clipped-bin break. The AVGs
// are multi-predicate statements whose Eq.-29 weight extrema shift mass
// toward higher-centre bins, so the extreme weighted means alone do not
// bracket the estimate: AVG bounds must keep widening to include it.
TEST(AnswerContract, PowerDirectedStatements) {
  DbOptions opt;
  opt.compress = true;
  auto db = Db::FromGenerator("power", 200000, 1, opt);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const char* kSql[] = {
      "SELECT SUM(sub_metering_2) FROM power WHERE hour < 16 AND "
      "sub_metering_2 < 0.9 AND global_intensity <= 4.5;",
      "SELECT AVG(hour) FROM power WHERE global_reactive_power <= 0.077 AND "
      "global_active_power > 1.369 AND sub_metering_2 >= 61.3 AND "
      "voltage >= 238.45 AND timestamp > 1584979440;",
      "SELECT AVG(timestamp) FROM power WHERE global_reactive_power <= 0.1 "
      "AND hour <= 0 AND sub_metering_1 > 0 AND global_intensity > 1.1 AND "
      "day_of_week > 1;",
      "SELECT AVG(timestamp) FROM power WHERE global_reactive_power > 0.164 "
      "AND sub_metering_2 <= 0.1 AND global_active_power <= 0.73 AND "
      "sub_metering_3 < 11.5 AND day_of_week <= 5;",
  };
  for (const char* sql : kSql) {
    auto q = ParseSql(sql);
    ASSERT_TRUE(q.ok()) << sql;
    auto r = db->ExecuteSql(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    ASSERT_FALSE(r->Scalar().empty_selection) << sql;
    ExpectContract(r->Scalar(), q->func, sql);
  }
}

}  // namespace
}  // namespace pairwisehist
