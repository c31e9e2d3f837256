// Segmented synopsis validation: a Db sharded into N sealed segments must
// (a) agree with the monolithic single-segment Db within CI bounds on a
// randomized workload over every aggregate function and predicate shape,
// (b) merge COUNT/SUM/MIN/MAX partials exactly (the merged answer equals
// the combination of independent per-segment answers), (c) produce
// bit-identical doubles for any exec_threads value, (d) round-trip the
// multi-segment persistence container and still open PR-1-era
// single-synopsis blobs, (e) resolve categorical predicates and GROUP BY
// labels across segments whose dictionaries grew after an append,
// (f) prune provably-non-matching segments without changing any result,
// and (g) answer a read with mass in one segment with that segment's own
// engine result, bit for bit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "common/rng.h"
#include "core/synopsis_set.h"
#include "datagen/datasets.h"
#include "query/partial_agg.h"
#include "query/segment_exec.h"
#include "query/sql_parser.h"
#include "storage/segment.h"

namespace pairwisehist {
namespace {

// ---------------------------------------------------------------------------
// Random query generation (same shapes as the fast-path suite: every
// aggregate, AND/OR nesting, same-column consolidation, categorical
// equality, GROUP BY).

struct ColumnStats {
  std::string name;
  DataType type = DataType::kFloat64;
  double min = 0, max = 0;
  std::vector<std::string> dictionary;
};

std::vector<ColumnStats> CollectStats(const Table& t) {
  std::vector<ColumnStats> stats;
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    const Column& col = t.column(c);
    ColumnStats s;
    s.name = col.name();
    s.type = col.type();
    bool any = false;
    for (size_t r = 0; r < col.size(); ++r) {
      if (col.IsNull(r)) continue;
      double v = col.Value(r);
      if (!any || v < s.min) s.min = v;
      if (!any || v > s.max) s.max = v;
      any = true;
    }
    if (col.type() == DataType::kCategorical) s.dictionary = col.dictionary();
    stats.push_back(std::move(s));
  }
  return stats;
}

// `cross_layout` restricts the shapes to queries whose meaning does not
// depend on one synopsis's internal code assignment: categorical columns
// are queried by string equality only (numeric comparisons on categoricals
// act in frequency-rank space, which legitimately differs per segment) and
// non-COUNT aggregation sticks to numeric columns (MIN/SUM/... of a
// dictionary code is rank-space noise).
Condition RandCondition(Rng* rng, const std::vector<ColumnStats>& stats,
                        bool cross_layout) {
  const ColumnStats& s = stats[static_cast<size_t>(
      rng->UniformInt(static_cast<uint64_t>(stats.size())))];
  static const CmpOp kOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                               CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};
  Condition c;
  c.column = s.name;
  c.op = kOps[rng->UniformInt(6)];
  if (s.type == DataType::kCategorical && !s.dictionary.empty() &&
      (cross_layout || rng->Uniform(0, 1) < 0.7)) {
    c.is_string = true;
    if (rng->Uniform(0, 1) < 0.1) {
      c.text_value = "no-such-category";
    } else {
      c.text_value = s.dictionary[static_cast<size_t>(
          rng->UniformInt(static_cast<uint64_t>(s.dictionary.size())))];
    }
    c.op = rng->Uniform(0, 1) < 0.5 ? CmpOp::kEq : CmpOp::kNe;
    return c;
  }
  double span = s.max - s.min;
  double v = s.min + rng->Uniform(-0.1, 1.1) * (span > 0 ? span : 1.0);
  if (rng->Uniform(0, 1) < 0.5) v = std::floor(v);
  c.value = v;
  return c;
}

PredicateNode RandTree(Rng* rng, const std::vector<ColumnStats>& stats,
                       int depth, bool cross_layout) {
  if (depth <= 0 || rng->Uniform(0, 1) < 0.45) {
    PredicateNode n;
    n.type = PredicateNode::Type::kCondition;
    n.condition = RandCondition(rng, stats, cross_layout);
    return n;
  }
  PredicateNode n;
  n.type = rng->Uniform(0, 1) < 0.5 ? PredicateNode::Type::kAnd
                                    : PredicateNode::Type::kOr;
  size_t kids = 2 + rng->UniformInt(2);
  for (size_t i = 0; i < kids; ++i) {
    n.children.push_back(RandTree(rng, stats, depth - 1, cross_layout));
  }
  return n;
}

Query RandQuery(Rng* rng, const std::vector<ColumnStats>& stats,
                const std::string& table_name, bool allow_group,
                bool cross_layout = false) {
  static const AggFunc kFuncs[] = {AggFunc::kCount,  AggFunc::kSum,
                                   AggFunc::kAvg,    AggFunc::kVar,
                                   AggFunc::kMin,    AggFunc::kMax,
                                   AggFunc::kMedian};
  Query q;
  q.table = table_name;
  q.func = kFuncs[rng->UniformInt(7)];
  for (int attempt = 0; attempt < 16; ++attempt) {
    const ColumnStats& agg = stats[static_cast<size_t>(
        rng->UniformInt(static_cast<uint64_t>(stats.size())))];
    q.agg_column = agg.name;
    if (!cross_layout || q.func == AggFunc::kCount ||
        agg.type != DataType::kCategorical) {
      break;
    }
  }
  if (q.func == AggFunc::kCount && rng->Uniform(0, 1) < 0.25) {
    q.count_star = true;
    q.agg_column.clear();
  }
  if (rng->Uniform(0, 1) < 0.92) {
    q.where = RandTree(rng, stats, 2, cross_layout);
  }
  if (allow_group && rng->Uniform(0, 1) < 0.15) {
    for (const ColumnStats& s : stats) {
      if (s.type == DataType::kCategorical) {
        q.group_by = s.name;
        break;
      }
    }
  }
  return q;
}

bool SameDouble(double x, double y) {
  return (std::isnan(x) && std::isnan(y)) || x == y;
}

// Interval overlap with a small relative slack: both layouts bound the
// same quantity under the within-bin uniformity + conditional-independence
// model, so their CIs must (approximately) intersect.
bool IntervalsOverlap(const AggResult& a, const AggResult& b) {
  double scale = std::max({std::fabs(a.lower), std::fabs(a.upper),
                           std::fabs(b.lower), std::fabs(b.upper), 1.0});
  double eps = 1e-2 * scale + 1e-9;
  return a.lower <= b.upper + eps && b.lower <= a.upper + eps;
}

Table ControlledTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  Table t("ctl");
  Column x("x", DataType::kInt64, 0);
  Column y("y", DataType::kFloat64, 1);
  Column g("g", DataType::kCategorical, 0);
  g.SetDictionary({"small", "mid", "big"});
  for (size_t r = 0; r < n; ++r) {
    double xv = std::floor(rng.Uniform(0, 1000));
    x.Append(xv);
    y.Append(std::round((2 * xv + rng.Normal(0, 25)) * 10) / 10);
    g.Append(xv < 250 ? 0.0 : (xv < 750 ? 1.0 : 2.0));
  }
  t.AddColumn(std::move(x));
  t.AddColumn(std::move(y));
  t.AddColumn(std::move(g));
  return t;
}

StatusOr<Db> BuildSegmented(Table table, size_t nseg, unsigned exec_threads,
                            size_t sample_size = 0) {
  DbOptions options;
  options.synopsis.sample_size = sample_size;
  options.target_segment_rows =
      nseg == 0 ? 0 : (table.NumRows() + nseg - 1) / nseg;
  options.exec_threads = exec_threads;
  options.build_threads = 2;
  return Db::FromTable(std::move(table), options);
}

// ---------------------------------------------------------------------------
// (a) Randomized 1-segment vs 16-segment equivalence, >= 500 queries.

TEST(SegmentEquivalence, OneVsSixteenSegmentsWithinBounds) {
  // Segments need enough rows for the pairwise chi-squared refinement to
  // keep cross-column structure (tiny segments collapse sparse 2-d
  // histograms toward uniformity — quantified in bench_segments).
  const size_t kRows = 96000;
  auto db1 = BuildSegmented(ControlledTable(kRows, 101), 0, 1);
  auto db16 = BuildSegmented(ControlledTable(kRows, 101), 16, 2);
  ASSERT_TRUE(db1.ok()) << db1.status().ToString();
  ASSERT_TRUE(db16.ok()) << db16.status().ToString();
  ASSERT_EQ(db1->num_segments(), 1u);
  ASSERT_EQ(db16->num_segments(), 16u);
  ASSERT_EQ(db16->total_rows(), kRows);

  std::vector<ColumnStats> stats = CollectStats(*db1->table());
  Rng rng(7);
  size_t executed = 0, compared = 0, mismatches = 0, empty_disagreements = 0;
  const size_t kQueries = 600;
  for (size_t i = 0; i < kQueries; ++i) {
    Query q = RandQuery(&rng, stats, "ctl", /*allow_group=*/true,
                        /*cross_layout=*/true);
    auto a = db1->Execute(q);
    auto b = db16->Execute(q);
    ASSERT_EQ(a.ok(), b.ok()) << q.ToSql();
    if (!a.ok()) continue;
    ++executed;

    if (q.group_by.empty()) {
      const AggResult& ra = a->Scalar();
      const AggResult& rb = b->Scalar();
      if (ra.empty_selection != rb.empty_selection) {
        // Coverage estimates near zero may tip either way across different
        // bin layouts; tolerated below as long as they stay rare.
        ++empty_disagreements;
        continue;
      }
      if (ra.empty_selection) continue;
      ++compared;
      if (!IntervalsOverlap(ra, rb)) {
        ++mismatches;
        std::printf("disjoint CIs: %s\n  1seg  [%g, %g] est %g\n"
                    "  16seg [%g, %g] est %g\n",
                    q.ToSql().c_str(), ra.lower, ra.upper, ra.estimate,
                    rb.lower, rb.upper, rb.estimate);
      }
    } else {
      // Grouped: every label present in both with overlapping intervals.
      for (const auto& ga : a->groups) {
        if (ga.agg.empty_selection) continue;
        bool found = false;
        for (const auto& gb : b->groups) {
          if (gb.label != ga.label) continue;
          found = true;
          if (!gb.agg.empty_selection) {
            ++compared;
            if (!IntervalsOverlap(ga.agg, gb.agg)) {
              ++mismatches;
              std::printf("disjoint CIs: %s group %s\n", q.ToSql().c_str(),
                          ga.label.c_str());
            }
          }
        }
        // A group visible in one layout but estimated empty in the other
        // counts as an empty disagreement, not a failure.
        if (!found) ++empty_disagreements;
      }
    }
  }
  EXPECT_GT(executed, kQueries / 2);
  EXPECT_GT(compared, 300u);
  // Both layouts bound the same quantity: their CIs must intersect except
  // for a small model-approximation tail (conditional independence +
  // within-bin uniformity interact differently with each bin layout).
  EXPECT_LE(mismatches, compared / 50)
      << mismatches << " of " << compared << " comparisons had disjoint CIs";
  // Bin-layout-sensitive zero/non-zero flips must stay rare.
  EXPECT_LT(empty_disagreements, executed / 10);
}

// ---------------------------------------------------------------------------
// (b) Exact merges: the segmented answer for COUNT/SUM/MIN/MAX equals the
// combination of independent per-segment engine answers.

TEST(SegmentEquivalence, CountSumMinMaxMergeExactly) {
  auto db = BuildSegmented(ControlledTable(20000, 55), 8, 1);
  ASSERT_TRUE(db.ok());
  const SegmentedExecutor& ex = db->executor();
  ASSERT_EQ(ex.NumSegments(), 8u);

  std::vector<ColumnStats> stats = CollectStats(*db->table());
  Rng rng(17);
  size_t checked = 0;
  for (size_t i = 0; i < 300; ++i) {
    Query q = RandQuery(&rng, stats, "ctl", /*allow_group=*/false);
    if (q.func == AggFunc::kAvg || q.func == AggFunc::kVar ||
        q.func == AggFunc::kMedian) {
      continue;
    }
    auto merged = db->Execute(q);
    if (!merged.ok()) continue;

    // Independent per-segment answers through each segment's own engine.
    double count_sum = 0, sum_sum = 0;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    bool any = false, per_seg_ok = true;
    for (size_t s = 0; s < ex.NumSegments(); ++s) {
      auto r = ex.engine(s).Execute(q);
      if (!r.ok()) {
        per_seg_ok = false;
        break;
      }
      const AggResult& agg = r->Scalar();
      if (q.func == AggFunc::kCount) {
        count_sum += agg.estimate;
        continue;
      }
      if (agg.empty_selection) continue;
      any = true;
      sum_sum += agg.estimate;
      mn = std::min(mn, agg.estimate);
      mx = std::max(mx, agg.estimate);
    }
    if (!per_seg_ok) continue;
    ++checked;

    const AggResult& m = merged->Scalar();
    switch (q.func) {
      case AggFunc::kCount:
        EXPECT_DOUBLE_EQ(m.estimate, count_sum) << q.ToSql();
        break;
      case AggFunc::kSum:
        if (any) EXPECT_DOUBLE_EQ(m.estimate, sum_sum) << q.ToSql();
        else EXPECT_TRUE(m.empty_selection) << q.ToSql();
        break;
      case AggFunc::kMin:
        if (any) EXPECT_DOUBLE_EQ(m.estimate, mn) << q.ToSql();
        else EXPECT_TRUE(m.empty_selection) << q.ToSql();
        break;
      case AggFunc::kMax:
        if (any) EXPECT_DOUBLE_EQ(m.estimate, mx) << q.ToSql();
        else EXPECT_TRUE(m.empty_selection) << q.ToSql();
        break;
      default:
        break;
    }
  }
  EXPECT_GT(checked, 100u);
}

// ---------------------------------------------------------------------------
// (c) Determinism: identical results (bit-equal doubles) for any
// exec_threads value, alongside the fast-path suite's guarantees.

TEST(SegmentDeterminism, SerialVsEightThreadsBitEqual) {
  auto serial = BuildSegmented(ControlledTable(20000, 77), 8, 1);
  auto threaded = BuildSegmented(ControlledTable(20000, 77), 8, 8);
  ASSERT_TRUE(serial.ok() && threaded.ok());
  ASSERT_EQ(serial->num_segments(), 8u);
  ASSERT_EQ(threaded->num_segments(), 8u);

  std::vector<ColumnStats> stats = CollectStats(*serial->table());
  Rng rng(23);
  size_t executed = 0;
  for (size_t i = 0; i < 300; ++i) {
    Query q = RandQuery(&rng, stats, "ctl", /*allow_group=*/true);
    auto a = serial->Execute(q);
    auto b = threaded->Execute(q);
    ASSERT_EQ(a.ok(), b.ok()) << q.ToSql();
    if (!a.ok()) continue;
    ++executed;
    ASSERT_EQ(a->groups.size(), b->groups.size()) << q.ToSql();
    for (size_t g = 0; g < a->groups.size(); ++g) {
      EXPECT_EQ(a->groups[g].label, b->groups[g].label) << q.ToSql();
      EXPECT_EQ(a->groups[g].agg.empty_selection,
                b->groups[g].agg.empty_selection)
          << q.ToSql();
      EXPECT_TRUE(SameDouble(a->groups[g].agg.estimate,
                             b->groups[g].agg.estimate))
          << q.ToSql();
      EXPECT_TRUE(
          SameDouble(a->groups[g].agg.lower, b->groups[g].agg.lower))
          << q.ToSql();
      EXPECT_TRUE(
          SameDouble(a->groups[g].agg.upper, b->groups[g].agg.upper))
          << q.ToSql();
    }
  }
  EXPECT_GT(executed, 150u);
}

// Repeated executions of one prepared query on a threaded multi-segment Db
// are self-consistent (the pool introduces no scheduling dependence).
TEST(SegmentDeterminism, RepeatedThreadedExecutionStable) {
  auto db = BuildSegmented(ControlledTable(12000, 31), 6, 4);
  ASSERT_TRUE(db.ok());
  auto pq = db->Prepare(
      "SELECT AVG(y) FROM ctl WHERE x > 100 AND x < 900 OR g = 'big';");
  ASSERT_TRUE(pq.ok());
  auto first = pq->Execute();
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 50; ++i) {
    auto again = pq->Execute();
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->groups.size(), first->groups.size());
    EXPECT_TRUE(SameDouble(again->Scalar().estimate,
                           first->Scalar().estimate));
    EXPECT_TRUE(SameDouble(again->Scalar().lower, first->Scalar().lower));
    EXPECT_TRUE(SameDouble(again->Scalar().upper, first->Scalar().upper));
  }
}

// ---------------------------------------------------------------------------
// (d) Persistence: the multi-segment container round-trips, and legacy
// single-synopsis (PWH1) blobs still open.

TEST(SegmentPersistence, MultiSegmentSaveOpenRoundTrip) {
  auto db = BuildSegmented(ControlledTable(16000, 91), 4, 1, 4000);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->num_segments(), 4u);
  std::string path = ::testing::TempDir() + "/segment_test_set.ph";
  ASSERT_TRUE(db->Save(path).ok());

  auto restored = Db::Open(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_segments(), 4u);
  EXPECT_EQ(restored->total_rows(), db->total_rows());

  const char* kSqls[] = {
      "SELECT COUNT(*) FROM ctl;",
      "SELECT COUNT(x) FROM ctl WHERE x > 500;",
      "SELECT AVG(y) FROM ctl WHERE x >= 250 AND x < 750;",
      "SELECT SUM(y) FROM ctl WHERE g = 'mid';",
      "SELECT MIN(x) FROM ctl WHERE x > 100;",
      "SELECT MAX(y) FROM ctl WHERE x < 400 OR x > 900;",
      "SELECT MEDIAN(y) FROM ctl WHERE x < 600;",
      "SELECT VAR(y) FROM ctl WHERE g != 'small';",
      "SELECT COUNT(*) FROM ctl GROUP BY g;",
  };
  for (const char* sql : kSqls) {
    auto a = db->ExecuteSql(sql);
    auto b = restored->ExecuteSql(sql);
    ASSERT_TRUE(a.ok() && b.ok()) << sql;
    ASSERT_EQ(a->groups.size(), b->groups.size()) << sql;
    for (size_t g = 0; g < a->groups.size(); ++g) {
      EXPECT_EQ(a->groups[g].label, b->groups[g].label) << sql;
      EXPECT_TRUE(SameDouble(a->groups[g].agg.estimate,
                             b->groups[g].agg.estimate))
          << sql;
      EXPECT_TRUE(
          SameDouble(a->groups[g].agg.lower, b->groups[g].agg.lower))
          << sql;
      EXPECT_TRUE(
          SameDouble(a->groups[g].agg.upper, b->groups[g].agg.upper))
          << sql;
    }
  }
  std::remove(path.c_str());
}

TEST(SegmentPersistence, LegacySingleSynopsisBlobStillOpens) {
  Table t = ControlledTable(8000, 13);
  PairwiseHistConfig cfg;
  cfg.sample_size = 0;
  auto ph = PairwiseHist::BuildFromTable(t, cfg);
  ASSERT_TRUE(ph.ok());
  // A PR-1-era file is a bare PairwiseHist serialization.
  std::vector<uint8_t> legacy = ph->Serialize();

  auto db = Db::FromBlob(legacy);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->num_segments(), 1u);
  EXPECT_EQ(db->total_rows(), 8000u);

  AqpEngine direct(&ph.value());
  const char* sql = "SELECT AVG(y) FROM ctl WHERE x > 200;";
  auto a = direct.ExecuteSql(sql);
  auto b = db->ExecuteSql(sql);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(SameDouble(a->Scalar().estimate, b->Scalar().estimate));
  EXPECT_TRUE(SameDouble(a->Scalar().lower, b->Scalar().lower));
  EXPECT_TRUE(SameDouble(a->Scalar().upper, b->Scalar().upper));
}

// ---------------------------------------------------------------------------
// (e) Cross-segment categorical dictionary growth.

TEST(SegmentAppend, DictionaryGrowsAcrossSegments) {
  auto make = [](size_t n, const std::vector<std::string>& dict,
                 uint64_t seed) {
    Table t("sensors");
    Column reading("reading", DataType::kFloat64, 1);
    Column status("status", DataType::kCategorical, 0);
    status.SetDictionary(dict);
    Rng rng(seed);
    for (size_t r = 0; r < n; ++r) {
      reading.Append(std::round(rng.Uniform(0, 100) * 10) / 10);
      status.Append(
          static_cast<double>(rng.UniformInt(uint64_t(dict.size()))));
    }
    t.AddColumn(std::move(reading));
    t.AddColumn(std::move(status));
    return t;
  };
  Table base = make(8000, {"ok", "warn"}, 3);
  Table batch = make(3000, {"ok", "fault"}, 4);  // 'fault' is brand new

  DbOptions options;
  options.synopsis.sample_size = 0;
  auto db = Db::FromTable(std::move(base), options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Append(batch).ok());
  ASSERT_EQ(db->num_segments(), 2u);  // sealed, not mutated

  // Predicates on old, new and never-seen categories resolve across both
  // segments and track the exact answer.
  for (const char* sql :
       {"SELECT COUNT(reading) FROM sensors WHERE status = 'ok';",
        "SELECT COUNT(reading) FROM sensors WHERE status = 'warn';",
        "SELECT COUNT(reading) FROM sensors WHERE status = 'fault';",
        "SELECT COUNT(reading) FROM sensors WHERE status != 'fault';",
        "SELECT COUNT(reading) FROM sensors WHERE status = 'nope';"}) {
    auto approx = db->ExecuteSql(sql);
    auto exact = db->ExecuteExactSql(sql);
    ASSERT_TRUE(approx.ok() && exact.ok()) << sql;
    EXPECT_NEAR(approx->Scalar().estimate, exact->Scalar().estimate,
                0.02 * 11000 + 1.0)
        << sql;
  }

  // GROUP BY surfaces every label, including the appended-only one.
  auto grouped = db->ExecuteSql(
      "SELECT COUNT(reading) FROM sensors GROUP BY status;");
  ASSERT_TRUE(grouped.ok());
  std::vector<std::string> labels;
  for (const auto& g : grouped->groups) labels.push_back(g.label);
  EXPECT_NE(std::find(labels.begin(), labels.end(), "ok"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "warn"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "fault"), labels.end());

  // The canonical dictionary grew append-only: the new segment's transform
  // keeps the old codes and extends.
  const auto& dict = db->synopsis(1).transform(1).dictionary;
  ASSERT_GE(dict.size(), 3u);
  EXPECT_EQ(dict[0], "ok");
  EXPECT_EQ(dict[1], "warn");
  EXPECT_EQ(dict[2], "fault");
}

// ---------------------------------------------------------------------------
// (e') Append seals the batch as a fresh segment; the existing one is
// left exactly as it was.

TEST(SegmentAppend, SealsBatchAsFreshSegment) {
  DbOptions seal;
  seal.synopsis.sample_size = 0;
  auto db = Db::FromTable(ControlledTable(10000, 41), seal);
  ASSERT_TRUE(db.ok());
  const std::vector<uint8_t> first = db->synopsis(0).Serialize();

  auto count = db->Prepare("SELECT COUNT(*) FROM ctl;");
  ASSERT_TRUE(count.ok());

  ASSERT_TRUE(db->Append(ControlledTable(4000, 42)).ok());
  EXPECT_EQ(db->num_segments(), 2u);  // sealed a fresh segment
  EXPECT_EQ(db->total_rows(), 14000u);
  EXPECT_EQ(db->synopsis(0).Serialize(), first);  // sealed = immutable

  // The prepared query survives the append and sees the new rows.
  auto a = count->Execute();
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(a->Scalar().estimate, 14000.0);
}

// ---------------------------------------------------------------------------
// (f) Planner pruning: provably-non-matching segments are skipped and
// results are unchanged.

TEST(SegmentPruning, DisjointRangesPruneWithoutChangingResults) {
  // A sorted id column makes each contiguous segment's [min, max] disjoint.
  auto make = [](size_t n) {
    Rng rng(19);
    Table t("ev");
    Column id("id", DataType::kInt64, 0);
    Column v("v", DataType::kFloat64, 1);
    for (size_t r = 0; r < n; ++r) {
      id.Append(static_cast<double>(r));
      v.Append(std::round(rng.Uniform(0, 50) * 10) / 10);
    }
    t.AddColumn(std::move(id));
    t.AddColumn(std::move(v));
    return t;
  };

  DbOptions pruned;
  pruned.synopsis.sample_size = 0;
  pruned.target_segment_rows = 2000;
  pruned.exec_threads = 1;
  DbOptions unpruned = pruned;
  unpruned.prune_segments = false;

  auto db_p = Db::FromTable(make(16000), pruned);
  auto db_u = Db::FromTable(make(16000), unpruned);
  ASSERT_TRUE(db_p.ok() && db_u.ok());
  ASSERT_EQ(db_p->num_segments(), 8u);

  const char* kSqls[] = {
      "SELECT COUNT(id) FROM ev WHERE id < 1500;",
      "SELECT AVG(v) FROM ev WHERE id >= 6000 AND id < 8000;",
      "SELECT SUM(v) FROM ev WHERE id = 12345;",
      "SELECT MAX(v) FROM ev WHERE id > 15000;",
      "SELECT COUNT(id) FROM ev WHERE id > 100000;",  // prunes everything
  };
  for (const char* sql : kSqls) {
    auto pp = db_p->Prepare(sql);
    auto pu = db_u->Prepare(sql);
    ASSERT_TRUE(pp.ok() && pu.ok()) << sql;
    auto a = pp->Execute();
    auto b = pu->Execute();
    ASSERT_TRUE(a.ok() && b.ok()) << sql;
    ASSERT_EQ(a->groups.size(), b->groups.size()) << sql;
    for (size_t g = 0; g < a->groups.size(); ++g) {
      EXPECT_EQ(a->groups[g].agg.empty_selection,
                b->groups[g].agg.empty_selection)
          << sql;
      EXPECT_TRUE(SameDouble(a->groups[g].agg.estimate,
                             b->groups[g].agg.estimate))
          << sql;
      EXPECT_TRUE(
          SameDouble(a->groups[g].agg.lower, b->groups[g].agg.lower))
          << sql;
      EXPECT_TRUE(
          SameDouble(a->groups[g].agg.upper, b->groups[g].agg.upper))
          << sql;
    }
    // The range-restricted queries really did prune.
    EXPECT_GT(pp->plan().PrunedSegments(), 0u) << sql;
    EXPECT_EQ(pu->plan().PrunedSegments(), 0u) << sql;
  }
}

// A prepared query's prune flags across a sealing append and a
// compaction: an append computes flags only for the new segment (sealed
// segments never change, so their flags stay valid), and a compaction
// replaces segments, so every flag is recomputed. Each answer equals a
// freshly prepared query's.
TEST(SegmentPruning, FlagsFollowSealingAppendAndCompaction) {
  auto make = [](size_t n, double lo, double hi, uint64_t seed) {
    Rng rng(seed);
    Table t("ev");
    Column x("x", DataType::kInt64, 0);
    for (size_t r = 0; r < n; ++r) {
      x.Append(std::floor(rng.Uniform(lo, hi)));
    }
    t.AddColumn(std::move(x));
    return t;
  };
  const char* kSql = "SELECT COUNT(x) FROM ev WHERE x > 150;";
  DbOptions options;
  options.synopsis.sample_size = 0;
  options.target_segment_rows = 2000;
  options.exec_threads = 1;
  auto db = Db::FromTable(make(4000, 0, 100, 5), options);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->num_segments(), 2u);

  auto pq = db->Prepare(kSql);
  ASSERT_TRUE(pq.ok());
  auto expect_fresh = [&](const char* stage) {
    auto kept = pq->Execute();
    auto fresh = db->ExecuteSql(kSql);
    ASSERT_TRUE(kept.ok() && fresh.ok()) << stage;
    EXPECT_EQ(kept->Scalar().estimate, fresh->Scalar().estimate) << stage;
    EXPECT_EQ(kept->Scalar().lower, fresh->Scalar().lower) << stage;
    EXPECT_EQ(kept->Scalar().upper, fresh->Scalar().upper) << stage;
    EXPECT_EQ(pq->plan().PlannedSegments(), db->num_segments()) << stage;
  };

  // Both old segments hold only x < 100: provably no match.
  expect_fresh("before append");
  EXPECT_EQ(pq->plan().PrunedSegments(), 2u);
  EXPECT_DOUBLE_EQ(pq->Execute()->Scalar().estimate, 0.0);

  // The sealed batch (x in [150, 200)) is the only segment admitted.
  ASSERT_TRUE(db->Append(make(1000, 150, 200, 6)).ok());
  ASSERT_EQ(db->num_segments(), 3u);
  expect_fresh("after append");
  EXPECT_EQ(pq->plan().PrunedSegments(), 2u);
  EXPECT_GT(pq->Execute()->Scalar().estimate, 0.0);

  // Merge segments 1 and 2 (rows [2000, 5000)): the merged segment takes
  // index 1, which was pruned before, and now holds matching rows.
  CompactionSpec spec;
  spec.row_begin = 2000;
  spec.row_end = 5000;
  auto did = db->CompactOnce(nullptr, &spec);
  ASSERT_TRUE(did.ok()) << did.status().ToString();
  ASSERT_TRUE(did.value());
  ASSERT_EQ(db->num_segments(), 2u);
  expect_fresh("after compaction");
  EXPECT_EQ(pq->plan().PrunedSegments(), 1u);
  EXPECT_GT(pq->Execute()->Scalar().estimate, 0.0);
}

// A read with mass in exactly one segment answers with that segment's own
// engine result, bit for bit, for every aggregate: the merge of one part
// is the identity. Two WHERE clauses prune to one live segment; the other
// two keep an empty neighbour live through the pruning slack (the merge
// then draws only from the segment with mass).
TEST(SegmentPruning, PrunedToOneSegmentEqualsThatSegment) {
  Rng rng(83);
  Table t("ev");
  Column id("id", DataType::kInt64, 0);
  Column x("x", DataType::kFloat64, 2);
  Column y("y", DataType::kFloat64, 1);
  for (size_t r = 0; r < 40000; ++r) {
    id.Append(static_cast<double>(r));
    x.Append(std::round(rng.Uniform(0, 100) * 100) / 100);
    y.Append(std::round(rng.Uniform(0, 50) * 10) / 10);
  }
  t.AddColumn(std::move(id));
  t.AddColumn(std::move(x));
  t.AddColumn(std::move(y));

  DbOptions options;
  options.synopsis.sample_size = 4000;
  options.target_segment_rows = 10000;
  options.exec_threads = 1;
  auto db = Db::FromTable(std::move(t), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(db->num_segments(), 4u);

  struct Clause {
    const char* where;
    size_t segment;  // the one segment with mass
    size_t pruned;
  };
  const Clause kClauses[] = {
      {"id >= 31000 AND x < 45.5", 3, 3},
      {"id < 9000 AND x > 60", 0, 3},
      {"id >= 30000", 3, 2},
      {"id >= 30000 AND y > 25", 3, 2},
  };
  const char* kFuncs[] = {"COUNT", "SUM", "AVG", "VAR",
                          "MIN",   "MAX", "MEDIAN"};
  std::vector<std::string> sqls;
  std::vector<size_t> owner;
  for (const Clause& c : kClauses) {
    for (const char* f : kFuncs) {
      sqls.push_back(std::string("SELECT ") + f + "(x) FROM ev WHERE " +
                     c.where + ";");
      owner.push_back(c.segment);
    }
  }
  std::vector<PreparedQuery> batch;
  for (const std::string& sql : sqls) {
    auto pq = db->Prepare(sql);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    batch.push_back(std::move(pq).value());
  }
  std::vector<QueryResult> batched;
  ASSERT_TRUE(db->ExecuteBatch(batch.data(), batch.size(), &batched).ok());

  auto expect_same = [](const QueryResult& want, const QueryResult& got,
                        const std::string& ctx) {
    ASSERT_EQ(want.groups.size(), 1u) << ctx;
    ASSERT_EQ(got.groups.size(), 1u) << ctx;
    const AggResult& a = want.Scalar();
    const AggResult& b = got.Scalar();
    EXPECT_EQ(a.empty_selection, b.empty_selection) << ctx;
    EXPECT_TRUE(SameDouble(a.estimate, b.estimate))
        << ctx << std::setprecision(17) << "  segment=" << a.estimate
        << " db=" << b.estimate;
    EXPECT_TRUE(SameDouble(a.lower, b.lower))
        << ctx << std::setprecision(17) << "  segment=" << a.lower
        << " db=" << b.lower;
    EXPECT_TRUE(SameDouble(a.upper, b.upper))
        << ctx << std::setprecision(17) << "  segment=" << a.upper
        << " db=" << b.upper;
  };
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto q = ParseSql(sqls[i]);
    ASSERT_TRUE(q.ok()) << sqls[i];
    const AqpEngine& seg = db->executor().engine(owner[i]);
    auto plan = seg.Compile(*q);
    ASSERT_TRUE(plan.ok()) << sqls[i];
    auto want = seg.Execute(plan.value());
    ASSERT_TRUE(want.ok()) << sqls[i];
    ASSERT_FALSE(want->Scalar().empty_selection) << sqls[i];

    auto pq = db->Prepare(sqls[i]);
    ASSERT_TRUE(pq.ok()) << sqls[i];
    EXPECT_EQ(pq->plan().PrunedSegments(), kClauses[i / 7].pruned)
        << sqls[i];
    auto got = pq->Execute();
    ASSERT_TRUE(got.ok()) << sqls[i];
    expect_same(want.value(), got.value(), sqls[i] + " [Prepare]");
    expect_same(want.value(), batched[i], sqls[i] + " [ExecuteBatch]");
  }
}

// ---------------------------------------------------------------------------
// MergePartials unit semantics.

TEST(MergePartialsTest, CountSumsAndMinMaxCombine) {
  PartialAggregate a, b, c;
  a.empty = false;
  a.count = 100;
  a.count_lo = 90;
  a.count_hi = 110;
  a.value = AggResult{50, 40, 60, false};
  b.empty = false;
  b.count = 200;
  b.count_lo = 180;
  b.count_hi = 220;
  b.value = AggResult{30, 20, 35, false};
  c.empty = true;  // contributes nothing

  auto count = MergePartials(AggFunc::kCount, {&a, &b, &c});
  EXPECT_DOUBLE_EQ(count.estimate, 300.0);
  EXPECT_DOUBLE_EQ(count.lower, 270.0);
  EXPECT_DOUBLE_EQ(count.upper, 330.0);
  EXPECT_FALSE(count.empty_selection);

  auto sum = MergePartials(AggFunc::kSum, {&a, &b, &c});
  EXPECT_DOUBLE_EQ(sum.estimate, 80.0);
  EXPECT_DOUBLE_EQ(sum.lower, 60.0);
  EXPECT_DOUBLE_EQ(sum.upper, 95.0);

  auto mn = MergePartials(AggFunc::kMin, {&a, &b, &c});
  EXPECT_DOUBLE_EQ(mn.estimate, 30.0);
  EXPECT_DOUBLE_EQ(mn.lower, 20.0);
  auto mx = MergePartials(AggFunc::kMax, {&a, &b, &c});
  EXPECT_DOUBLE_EQ(mx.estimate, 50.0);
  EXPECT_DOUBLE_EQ(mx.upper, 60.0);
}

TEST(MergePartialsTest, AvgIsCountWeightedAndBoundsAreSound) {
  PartialAggregate a, b;
  a.empty = false;
  a.count = 100;
  a.count_lo = 100;
  a.count_hi = 100;
  a.value = AggResult{10, 9, 11, false};
  b.empty = false;
  b.count = 300;
  b.count_lo = 300;
  b.count_hi = 300;
  b.value = AggResult{20, 19, 21, false};
  auto avg = MergePartials(AggFunc::kAvg, {&a, &b});
  EXPECT_DOUBLE_EQ(avg.estimate, (100.0 * 10 + 300.0 * 20) / 400.0);
  // Exact counts: the bounds are the same weighted combination.
  EXPECT_DOUBLE_EQ(avg.lower, (100.0 * 9 + 300.0 * 19) / 400.0);
  EXPECT_DOUBLE_EQ(avg.upper, (100.0 * 11 + 300.0 * 21) / 400.0);

  // Uncertain counts widen toward the extreme segment means.
  a.count_lo = 0;
  a.count_hi = 1000;
  b.count_lo = 0;
  b.count_hi = 1000;
  auto wide = MergePartials(AggFunc::kAvg, {&a, &b});
  EXPECT_LE(wide.lower, 9.0);
  EXPECT_GE(wide.upper, 21.0);
  EXPECT_LE(wide.lower, wide.estimate);
  EXPECT_GE(wide.upper, wide.estimate);
}

TEST(MergePartialsTest, AllEmptyYieldsEmptySelection) {
  PartialAggregate a;
  a.empty = true;
  auto count = MergePartials(AggFunc::kCount, {&a});
  EXPECT_TRUE(count.empty_selection);
  EXPECT_DOUBLE_EQ(count.estimate, 0.0);
  auto avg = MergePartials(AggFunc::kAvg, {&a});
  EXPECT_TRUE(avg.empty_selection);
  EXPECT_TRUE(std::isnan(avg.estimate));
}

TEST(MergePartialsTest, MedianWalksMergedWeightedCdf) {
  // Segment A holds values [0, 10) with weight 10, segment B [10, 20)
  // with weight 30: the merged median sits inside B's bin at f = 1/3.
  PartialAggregate a, b;
  a.empty = false;
  a.count = 10;
  a.median_bins.push_back({0, 10, 10, 10, 10, 5});
  b.empty = false;
  b.count = 30;
  b.median_bins.push_back({10, 20, 30, 30, 30, 5});
  auto med = MergePartials(AggFunc::kMedian, {&a, &b});
  EXPECT_NEAR(med.estimate, 10 + 10.0 / 3.0, 1e-9);
  EXPECT_LE(med.lower, med.estimate);
  EXPECT_GE(med.upper, med.estimate);
}

// ---------------------------------------------------------------------------
// SegmentedTable partitioning invariants.

TEST(SegmentedTableTest, PartitionCoversAllRowsContiguously) {
  Table t = ControlledTable(10007, 3);
  auto st = SegmentedTable::Partition(&t, 1000);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->NumSegments(), 11u);
  size_t expect_begin = 0, total = 0;
  for (size_t i = 0; i < st->NumSegments(); ++i) {
    SegmentSpan s = st->span(i);
    EXPECT_EQ(s.begin, expect_begin);
    EXPECT_GT(s.end, s.begin);
    expect_begin = s.end;
    total += s.rows();
    Table seg = st->Materialize(i);
    EXPECT_EQ(seg.NumRows(), s.rows());
    EXPECT_EQ(seg.name(), "ctl");
    // Shared canonical dictionary: the slice keeps the base dictionary.
    EXPECT_EQ(seg.column(2).dictionary(), t.column(2).dictionary());
  }
  EXPECT_EQ(total, t.NumRows());

  auto single = SegmentedTable::Partition(&t, 0);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->NumSegments(), 1u);
  EXPECT_EQ(single->span(0).rows(), t.NumRows());
}

}  // namespace
}  // namespace pairwisehist
