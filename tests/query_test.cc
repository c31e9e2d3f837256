// Tests for the query layer: SQL parsing, interval sets, coverage with
// Theorem-2 bounds, and the exact engine.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "query/coverage.h"
#include "query/exact.h"
#include "query/sql_parser.h"

namespace pairwisehist {
namespace {

// ---------------------------------------------------------------------------
// SQL parser

TEST(SqlParserTest, MinimalQuery) {
  auto q = ParseSql("SELECT COUNT(*) FROM flights");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->func, AggFunc::kCount);
  EXPECT_TRUE(q->count_star);
  EXPECT_EQ(q->table, "flights");
  EXPECT_FALSE(q->where.has_value());
}

TEST(SqlParserTest, AllAggregationFunctions) {
  const std::pair<const char*, AggFunc> cases[] = {
      {"COUNT", AggFunc::kCount}, {"SUM", AggFunc::kSum},
      {"AVG", AggFunc::kAvg},     {"MIN", AggFunc::kMin},
      {"MAX", AggFunc::kMax},     {"MEDIAN", AggFunc::kMedian},
      {"VAR", AggFunc::kVar},     {"VARIANCE", AggFunc::kVar},
  };
  for (const auto& [name, func] : cases) {
    auto q = ParseSql(std::string("SELECT ") + name + "(x) FROM t;");
    ASSERT_TRUE(q.ok()) << name;
    EXPECT_EQ(q->func, func) << name;
    EXPECT_EQ(q->agg_column, "x");
  }
}

TEST(SqlParserTest, CaseInsensitiveKeywords) {
  auto q = ParseSql("select avg(delay) from d where x > 3 group by carrier");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->func, AggFunc::kAvg);
  EXPECT_EQ(q->group_by, "carrier");
}

TEST(SqlParserTest, AllOperators) {
  const std::pair<const char*, CmpOp> cases[] = {
      {"<", CmpOp::kLt},  {"<=", CmpOp::kLe}, {">", CmpOp::kGt},
      {">=", CmpOp::kGe}, {"=", CmpOp::kEq},  {"==", CmpOp::kEq},
      {"!=", CmpOp::kNe}, {"<>", CmpOp::kNe},
  };
  for (const auto& [op, expected] : cases) {
    auto q = ParseSql(std::string("SELECT COUNT(x) FROM t WHERE x ") + op +
                      " 5;");
    ASSERT_TRUE(q.ok()) << op;
    EXPECT_EQ(q->where->condition.op, expected) << op;
    EXPECT_DOUBLE_EQ(q->where->condition.value, 5.0);
  }
}

TEST(SqlParserTest, AndBindsTighterThanOr) {
  auto q = ParseSql(
      "SELECT COUNT(x) FROM t WHERE a > 1 AND b < 2 OR c = 3;");
  ASSERT_TRUE(q.ok());
  const PredicateNode& root = *q->where;
  ASSERT_EQ(root.type, PredicateNode::Type::kOr);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].type, PredicateNode::Type::kAnd);
  EXPECT_EQ(root.children[1].type, PredicateNode::Type::kCondition);
}

TEST(SqlParserTest, ParenthesesOverridePrecedence) {
  auto q = ParseSql(
      "SELECT COUNT(x) FROM t WHERE a > 1 AND (b < 2 OR c = 3);");
  ASSERT_TRUE(q.ok());
  const PredicateNode& root = *q->where;
  ASSERT_EQ(root.type, PredicateNode::Type::kAnd);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[1].type, PredicateNode::Type::kOr);
}

TEST(SqlParserTest, StringLiterals) {
  auto q = ParseSql(
      "SELECT AVG(delay) FROM f WHERE airline = 'AA' AND org != \"JFK\";");
  ASSERT_TRUE(q.ok());
  const PredicateNode& root = *q->where;
  EXPECT_TRUE(root.children[0].condition.is_string);
  EXPECT_EQ(root.children[0].condition.text_value, "AA");
  EXPECT_EQ(root.children[1].condition.text_value, "JFK");
}

TEST(SqlParserTest, EscapedQuoteInString) {
  auto q = ParseSql("SELECT COUNT(x) FROM t WHERE c = 'O''Hare';");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where->condition.text_value, "O'Hare");
}

TEST(SqlParserTest, NegativeAndFloatLiterals) {
  auto q = ParseSql("SELECT COUNT(x) FROM t WHERE a > -12.5;");
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q->where->condition.value, -12.5);
}

TEST(SqlParserTest, ErrorsArePositioned) {
  auto q = ParseSql("SELECT FROB(x) FROM t;");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("FROB"), std::string::npos);
  EXPECT_FALSE(ParseSql("SELECT COUNT(x) FROM t WHERE ;").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(x) t;").ok());
  EXPECT_FALSE(ParseSql("SELECT MIN(*) FROM t;").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(x) FROM t WHERE a >;").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(x) FROM t WHERE (a > 1;").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(x) FROM t WHERE a > 'unterminated")
                   .ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(x) FROM t extra;").ok());
}

TEST(SqlParserTest, ToSqlRoundTrip) {
  const char* sql =
      "SELECT AVG(delay) FROM f WHERE (a > 1 AND b <= 2) OR c != 'x';";
  auto q = ParseSql(sql);
  ASSERT_TRUE(q.ok());
  auto q2 = ParseSql(q->ToSql());
  ASSERT_TRUE(q2.ok()) << q->ToSql();
  EXPECT_EQ(q2->ToSql(), q->ToSql());
}

TEST(SqlParserTest, QueryHelpers) {
  auto q = ParseSql(
      "SELECT SUM(x) FROM t WHERE x > 1 AND y < 2 AND x < 10;");
  ASSERT_TRUE(q.ok());
  auto cols = q->PredicateColumns();
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], "x");
  EXPECT_EQ(cols[1], "y");
  EXPECT_FALSE(q->SingleColumn());
  auto single = ParseSql("SELECT SUM(x) FROM t WHERE x > 1 AND x < 9;");
  EXPECT_TRUE(single->SingleColumn());
}

TEST(SqlParserTest, SingleColumnCountStar) {
  EXPECT_TRUE(ParseSql("SELECT COUNT(*) FROM t;")->SingleColumn());
  EXPECT_TRUE(
      ParseSql("SELECT COUNT(*) FROM t WHERE x > 1 OR x < 0;")->SingleColumn());
  EXPECT_FALSE(
      ParseSql("SELECT COUNT(*) FROM t WHERE x > 1 OR y < 0;")->SingleColumn());
  EXPECT_FALSE(ParseSql("SELECT AVG(x) FROM t WHERE (x > 1 OR x < 0) AND "
                        "(x > 3 OR y = 'a');")
                   ->SingleColumn());
}

// Nesting is bounded, so no statement can recurse the parser off the stack.
std::string NestedSql(int depth) {
  return "SELECT COUNT(*) FROM t WHERE " + std::string(depth, '(') +
         "x > 1" + std::string(depth, ')') + ";";
}

TEST(SqlParserTest, NestingLimit) {
  auto deepest = ParseSql(NestedSql(kMaxSqlNesting));
  ASSERT_TRUE(deepest.ok()) << deepest.status().ToString();
  EXPECT_EQ(deepest->where->condition.column, "x");

  const size_t prefix = std::string("SELECT COUNT(*) FROM t WHERE ").size();
  for (int depth : {kMaxSqlNesting + 1, 100000}) {
    auto q = ParseSql(NestedSql(depth));
    ASSERT_FALSE(q.ok()) << depth;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(q.status().message(),
              "SQL: nesting too deep at offset " +
                  std::to_string(prefix + kMaxSqlNesting));
  }
  // The limit counts open parentheses, not parentheses in total.
  std::string wide = "SELECT COUNT(*) FROM t WHERE (x > 1)";
  for (int i = 0; i < 1000; ++i) wide += " OR (x < 0)";
  EXPECT_TRUE(ParseSql(wide).ok());
}

// Reads `literal` as the WHERE value of an otherwise fixed statement.
StatusOr<Query> ParseLiteral(const std::string& literal) {
  return ParseSql("SELECT COUNT(x) FROM t WHERE x < " + literal + ";");
}

TEST(SqlParserTest, DecimalLiteralsReadAsStrtodDoes) {
  for (const char* lit :
       {"5", "+5", "-5", ".5e1", "-12.5", "7.", "-.25", "+.5E-3", "007.50",
        "1e5", "1E+5", "2.5e-3", "1578000000.4", "0.1", "-0", "0.0",
        "123456789012345678901234567890", "1.7976931348623157e308",
        "4.9406564584124654e-324", "2.2250738585072011e-308",
        "1e-400", "-1e-400", "0.000000000000000000000000000001e-300"}) {
    auto q = ParseLiteral(lit);
    ASSERT_TRUE(q.ok()) << lit << ": " << q.status().ToString();
    const double want = std::strtod(lit, nullptr);
    const double got = q->where->condition.value;
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
        << lit << ": " << got << " vs strtod " << want;
  }
  // An exponent marker without digits ends the number, as in strtod.
  auto dangling = ParseSql("SELECT COUNT(x) FROM t WHERE x < 1e AND y > 2;");
  ASSERT_FALSE(dangling.ok());
  EXPECT_EQ(dangling.status().message(),
            "SQL: unexpected trailing input at offset 34");
}

TEST(SqlParserTest, RejectsNonDecimalLiterals) {
  const size_t at = std::string("SELECT COUNT(x) FROM t WHERE x < ").size();
  const std::pair<const char*, const char*> cases[] = {
      {"-nan", "non-finite literal"},
      {"+NaN", "non-finite literal"},
      {"-nan(0x1)", "non-finite literal"},
      {"+inf", "non-finite literal"},
      {"-infinity", "non-finite literal"},
      {"-Infinity", "non-finite literal"},
      {"0x10", "hexadecimal literal"},
      {"-0x1p3", "hexadecimal literal"},
      {"0X.8", "hexadecimal literal"},
      {"1e400", "numeric literal out of range"},
      {"-1.8e308", "numeric literal out of range"},
      {"1000000000000000000000e300", "numeric literal out of range"},
  };
  for (const auto& [lit, what] : cases) {
    auto q = ParseLiteral(lit);
    ASSERT_FALSE(q.ok()) << lit;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << lit;
    EXPECT_EQ(q.status().message(),
              std::string("SQL: ") + what + " at offset " + std::to_string(at))
        << lit;
  }
  // Unsigned spellings are identifiers, which are no literal.
  for (const char* lit : {"nan", "inf", "infinity"}) {
    auto q = ParseLiteral(lit);
    ASSERT_FALSE(q.ok()) << lit;
    EXPECT_EQ(q.status().message(),
              "SQL: expected literal at offset " + std::to_string(at));
  }
}

// ParseSql(q.ToSql()) reproduces q bit for bit, so ToSql can key caches.
TEST(SqlParserTest, ToSqlIsInjective) {
  const double values[] = {1578000000.4, 1578000000, -0.0, 0.0, 0.1, 1e-300,
                           -2.5e-310, 1e15, 123456789.123456789, 1e300,
                           -1234567890123456.0, 4.9406564584124654e-324};
  for (double v : values) {
    Query q;
    q.func = AggFunc::kSum;
    q.agg_column = "x";
    q.table = "t";
    PredicateNode leaf;
    leaf.condition.column = "x";
    leaf.condition.op = CmpOp::kLt;
    leaf.condition.value = v;
    q.where = leaf;
    auto back = ParseSql(q.ToSql());
    ASSERT_TRUE(back.ok()) << q.ToSql();
    const double got = back->where->condition.value;
    EXPECT_EQ(std::memcmp(&v, &got, sizeof(double)), 0) << q.ToSql();
  }
  EXPECT_NE(ParseSql("SELECT COUNT(*) FROM t WHERE x < 1578000000.4;")
                ->ToSql(),
            ParseSql("SELECT COUNT(*) FROM t WHERE x < 1578000000;")->ToSql());

  for (const char* text : {"O'Hare", "''", "'", "a''b'", "\"", "x' OR 'y"}) {
    Query q;
    q.count_star = true;
    q.table = "t";
    PredicateNode leaf;
    leaf.condition.column = "c";
    leaf.condition.is_string = true;
    leaf.condition.text_value = text;
    q.where = leaf;
    auto back = ParseSql(q.ToSql());
    ASSERT_TRUE(back.ok()) << q.ToSql();
    EXPECT_EQ(back->where->condition.text_value, text) << q.ToSql();
    EXPECT_EQ(back->ToSql(), q.ToSql());
  }
}

// ---------------------------------------------------------------------------
// Interval sets

TEST(IntervalSetTest, UnionCoalescesAdjacent) {
  IntervalSet a = IntervalSet::Of(1, 5);
  IntervalSet b = IntervalSet::Of(6, 9);
  IntervalSet u = IntervalSet::Union(a, b);
  ASSERT_EQ(u.pieces.size(), 1u);
  EXPECT_DOUBLE_EQ(u.pieces[0].first, 1);
  EXPECT_DOUBLE_EQ(u.pieces[0].second, 9);
}

TEST(IntervalSetTest, UnionKeepsGaps) {
  IntervalSet u =
      IntervalSet::Union(IntervalSet::Of(1, 3), IntervalSet::Of(7, 9));
  ASSERT_EQ(u.pieces.size(), 2u);
}

TEST(IntervalSetTest, IntersectOverlap) {
  IntervalSet i =
      IntervalSet::Intersect(IntervalSet::Of(1, 10), IntervalSet::Of(5, 20));
  ASSERT_EQ(i.pieces.size(), 1u);
  EXPECT_DOUBLE_EQ(i.pieces[0].first, 5);
  EXPECT_DOUBLE_EQ(i.pieces[0].second, 10);
}

TEST(IntervalSetTest, IntersectDisjointIsEmpty) {
  EXPECT_TRUE(IntervalSet::Intersect(IntervalSet::Of(1, 3),
                                     IntervalSet::Of(5, 9))
                  .Empty());
}

TEST(IntervalSetTest, IntersectMultiplePieces) {
  IntervalSet a = IntervalSet::Union(IntervalSet::Of(0, 10),
                                     IntervalSet::Of(20, 30));
  IntervalSet b = IntervalSet::Of(5, 25);
  IntervalSet i = IntervalSet::Intersect(a, b);
  ASSERT_EQ(i.pieces.size(), 2u);
  EXPECT_DOUBLE_EQ(i.pieces[0].second, 10);
  EXPECT_DOUBLE_EQ(i.pieces[1].first, 20);
}

TEST(IntervalSetTest, ContainsChecksMembership) {
  IntervalSet s = IntervalSet::Union(IntervalSet::Of(1, 3),
                                     IntervalSet::Of(7, 9));
  EXPECT_TRUE(s.Contains(2));
  EXPECT_TRUE(s.Contains(7));
  EXPECT_FALSE(s.Contains(5));
  EXPECT_FALSE(s.Contains(10));
}

TEST(ConditionToIntervalsTest, NumericOperators) {
  ColumnTransform tr;
  tr.type = DataType::kInt64;
  tr.scale = 1.0;
  tr.min_scaled = 0;
  tr.max_code = 1000;
  // Codes are value+1 (min 0 → code 1). Literal 10 → continuous code 11.
  Condition c;
  c.column = "x";
  c.value = 10;

  c.op = CmpOp::kLt;  // x < 10 ⇔ code <= 10
  EXPECT_DOUBLE_EQ(ConditionToIntervals(c, tr).pieces[0].second, 10);
  c.op = CmpOp::kLe;  // x <= 10 ⇔ code <= 11
  EXPECT_DOUBLE_EQ(ConditionToIntervals(c, tr).pieces[0].second, 11);
  c.op = CmpOp::kGt;  // x > 10 ⇔ code >= 12
  EXPECT_DOUBLE_EQ(ConditionToIntervals(c, tr).pieces[0].first, 12);
  c.op = CmpOp::kGe;  // x >= 10 ⇔ code >= 11
  EXPECT_DOUBLE_EQ(ConditionToIntervals(c, tr).pieces[0].first, 11);
  c.op = CmpOp::kEq;
  {
    IntervalSet s = ConditionToIntervals(c, tr);
    ASSERT_EQ(s.pieces.size(), 1u);
    EXPECT_DOUBLE_EQ(s.pieces[0].first, 11);
    EXPECT_DOUBLE_EQ(s.pieces[0].second, 11);
  }
  c.op = CmpOp::kNe;
  {
    IntervalSet s = ConditionToIntervals(c, tr);
    ASSERT_EQ(s.pieces.size(), 2u);
    EXPECT_DOUBLE_EQ(s.pieces[0].second, 10);
    EXPECT_DOUBLE_EQ(s.pieces[1].first, 12);
  }
}

TEST(ConditionToIntervalsTest, FractionalLiteralOnIntColumn) {
  ColumnTransform tr;
  tr.type = DataType::kInt64;
  tr.scale = 1.0;
  tr.min_scaled = 0;
  tr.max_code = 100;
  Condition c;
  c.column = "x";
  c.value = 10.5;  // continuous code 11.5
  c.op = CmpOp::kLt;  // x < 10.5 ⇔ code <= 11
  EXPECT_DOUBLE_EQ(ConditionToIntervals(c, tr).pieces[0].second, 11);
  c.op = CmpOp::kGt;  // x > 10.5 ⇔ code >= 12
  EXPECT_DOUBLE_EQ(ConditionToIntervals(c, tr).pieces[0].first, 12);
  c.op = CmpOp::kEq;  // no integer equals 10.5
  EXPECT_TRUE(ConditionToIntervals(c, tr).Empty());
  c.op = CmpOp::kNe;  // everything differs from 10.5
  EXPECT_TRUE(ConditionToIntervals(c, tr).IsAll());
}

TEST(ConditionToIntervalsTest, FloatScaling) {
  ColumnTransform tr;
  tr.type = DataType::kFloat64;
  tr.decimals = 2;
  tr.scale = 100.0;
  tr.min_scaled = 999;  // min value 9.99
  tr.max_code = 1000;
  Condition c;
  c.column = "x";
  c.value = 10.22;  // scaled 1022 → code 24
  c.op = CmpOp::kEq;
  IntervalSet s = ConditionToIntervals(c, tr);
  ASSERT_EQ(s.pieces.size(), 1u);
  EXPECT_NEAR(s.pieces[0].first, 24, 1e-9);
}

TEST(ConditionToIntervalsTest, CategoricalStrings) {
  ColumnTransform tr;
  tr.type = DataType::kCategorical;
  tr.dictionary = {"alpha", "beta", "gamma"};
  tr.rank_to_code = {1, 0, 2};  // beta most frequent
  tr.code_to_rank = {1, 0, 2};
  tr.max_code = 3;
  Condition c;
  c.column = "x";
  c.is_string = true;
  c.text_value = "beta";
  c.op = CmpOp::kEq;
  IntervalSet s = ConditionToIntervals(c, tr);
  ASSERT_EQ(s.pieces.size(), 1u);
  EXPECT_DOUBLE_EQ(s.pieces[0].first, 1);  // rank 0 → code 1
  c.text_value = "unknown";
  EXPECT_TRUE(ConditionToIntervals(c, tr).Empty());
  c.op = CmpOp::kNe;
  EXPECT_TRUE(ConditionToIntervals(c, tr).IsAll());
}

// ---------------------------------------------------------------------------
// Coverage

HistogramDim OneBin(double v_min, double v_max, uint64_t count,
                    uint64_t unique) {
  HistogramDim dim;
  dim.edges = {v_min, v_max + 1};
  dim.counts = {count};
  dim.v_min = {v_min};
  dim.v_max = {v_max};
  dim.unique = {unique};
  return dim;
}

TEST(CoverageTest, FullAndEmptyBins) {
  Chi2CriticalCache crit(0.001);
  HistogramDim dim = OneBin(10, 100, 5000, 80);
  Coverage full = ComputeCoverage(dim, IntervalSet::Of(0, 200), 100, crit);
  EXPECT_DOUBLE_EQ(full.beta[0], 1.0);
  EXPECT_DOUBLE_EQ(full.lo[0], 1.0);
  EXPECT_DOUBLE_EQ(full.hi[0], 1.0);
  Coverage none = ComputeCoverage(dim, IntervalSet::Of(200, 300), 100, crit);
  EXPECT_DOUBLE_EQ(none.beta[0], 0.0);
}

TEST(CoverageTest, PartialFractionIntegerUniform) {
  Chi2CriticalCache crit(0.001);
  HistogramDim dim = OneBin(0, 99, 10000, 100);
  // Interval [0, 49]: half of the 100 codes.
  Coverage cov = ComputeCoverage(dim, IntervalSet::Of(0, 49), 100, crit);
  EXPECT_NEAR(cov.beta[0], 0.5, 1e-9);
  // Theorem-2 bounds bracket the estimate and stay in (0, 1).
  EXPECT_LT(cov.lo[0], 0.5);
  EXPECT_GT(cov.hi[0], 0.5);
  EXPECT_GT(cov.lo[0], 0.3);
  EXPECT_LT(cov.hi[0], 0.7);
}

TEST(CoverageTest, EqualityUsesUniqueCount) {
  Chi2CriticalCache crit(0.001);
  HistogramDim dim = OneBin(0, 99, 1000, 25);
  Coverage cov = ComputeCoverage(dim, IntervalSet::Of(50, 50), 100, crit);
  EXPECT_NEAR(cov.beta[0], 1.0 / 25, 1e-9);
}

TEST(CoverageTest, TwoUniqueValuesHalfRule) {
  Chi2CriticalCache crit(0.001);
  HistogramDim dim = OneBin(10, 90, 500, 2);
  // Covers only the lower extremum.
  Coverage cov = ComputeCoverage(dim, IntervalSet::Of(0, 50), 100, crit);
  EXPECT_DOUBLE_EQ(cov.beta[0], 0.5);
  // Covers both extrema but not the full edge-to-edge span → still 1.0
  // because both unique values are inside.
  Coverage both = ComputeCoverage(dim, IntervalSet::Of(10, 90), 100, crit);
  EXPECT_DOUBLE_EQ(both.beta[0], 1.0);
}

TEST(CoverageTest, NonPassingBinWideBounds) {
  Chi2CriticalCache crit(0.001);
  HistogramDim dim = OneBin(0, 99, 50, 30);  // h < M = 100
  Coverage cov = ComputeCoverage(dim, IntervalSet::Of(0, 49), 100, crit);
  EXPECT_NEAR(cov.lo[0], 1.0 / 50, 1e-9);
  EXPECT_NEAR(cov.hi[0], 1.0 - 1.0 / 50, 1e-9);
}

TEST(CoverageTest, UnionOfPiecesSums) {
  Chi2CriticalCache crit(0.001);
  HistogramDim dim = OneBin(0, 99, 10000, 100);
  IntervalSet s = IntervalSet::Union(IntervalSet::Of(0, 24),
                                     IntervalSet::Of(75, 99));
  Coverage cov = ComputeCoverage(dim, s, 100, crit);
  EXPECT_NEAR(cov.beta[0], 0.5, 1e-9);
}

TEST(CoverageTest, EmptyBinStaysZero) {
  Chi2CriticalCache crit(0.001);
  HistogramDim dim = OneBin(0, 99, 0, 0);
  Coverage cov = ComputeCoverage(dim, IntervalSet::All(), 100, crit);
  EXPECT_DOUBLE_EQ(cov.beta[0], 0.0);
}

// ---------------------------------------------------------------------------
// Exact engine

Table MakeExactTable() {
  Table t("e");
  Column x("x", DataType::kInt64, 0);
  Column y("y", DataType::kFloat64, 1);
  Column g("g", DataType::kCategorical, 0);
  const double xs[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (double v : xs) {
    x.Append(v);
    if (v == 5) {
      y.AppendNull();
    } else {
      y.Append(v * 2.0);
    }
    g.AppendCategory(v <= 4 ? "low" : "high");
  }
  t.AddColumn(std::move(x));
  t.AddColumn(std::move(y));
  t.AddColumn(std::move(g));
  return t;
}

TEST(ExactTest, CountStarAndColumn) {
  Table t = MakeExactTable();
  EXPECT_DOUBLE_EQ(
      ExecuteExactSql(t, "SELECT COUNT(*) FROM e;")->Scalar().estimate, 10);
  // COUNT(y) skips the null at x=5.
  EXPECT_DOUBLE_EQ(
      ExecuteExactSql(t, "SELECT COUNT(y) FROM e;")->Scalar().estimate, 9);
}

TEST(ExactTest, PredicateOnNullIsFalse) {
  Table t = MakeExactTable();
  // y > 0 excludes the row where y is null.
  EXPECT_DOUBLE_EQ(
      ExecuteExactSql(t, "SELECT COUNT(x) FROM e WHERE y > 0;")
          ->Scalar()
          .estimate,
      9);
}

TEST(ExactTest, SumAvgMinMaxMedianVar) {
  Table t = MakeExactTable();
  EXPECT_DOUBLE_EQ(
      ExecuteExactSql(t, "SELECT SUM(x) FROM e;")->Scalar().estimate, 55);
  EXPECT_DOUBLE_EQ(
      ExecuteExactSql(t, "SELECT AVG(x) FROM e;")->Scalar().estimate, 5.5);
  EXPECT_DOUBLE_EQ(
      ExecuteExactSql(t, "SELECT MIN(x) FROM e WHERE x > 3;")
          ->Scalar()
          .estimate,
      4);
  EXPECT_DOUBLE_EQ(
      ExecuteExactSql(t, "SELECT MAX(x) FROM e WHERE x < 8;")
          ->Scalar()
          .estimate,
      7);
  EXPECT_DOUBLE_EQ(
      ExecuteExactSql(t, "SELECT MEDIAN(x) FROM e;")->Scalar().estimate,
      5.5);
  // Population variance of 1..10 = 8.25.
  EXPECT_NEAR(ExecuteExactSql(t, "SELECT VAR(x) FROM e;")->Scalar().estimate,
              8.25, 1e-9);
}

TEST(ExactTest, AndOrPrecedence) {
  Table t = MakeExactTable();
  // x < 3 OR (x > 8 AND x <= 9) → {1,2,9}.
  auto r = ExecuteExactSql(
      t, "SELECT COUNT(x) FROM e WHERE x > 8 AND x <= 9 OR x < 3;");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->Scalar().estimate, 3);
}

TEST(ExactTest, CategoricalEquality) {
  Table t = MakeExactTable();
  EXPECT_DOUBLE_EQ(
      ExecuteExactSql(t, "SELECT COUNT(x) FROM e WHERE g = 'low';")
          ->Scalar()
          .estimate,
      4);
  EXPECT_DOUBLE_EQ(
      ExecuteExactSql(t, "SELECT COUNT(x) FROM e WHERE g != 'low';")
          ->Scalar()
          .estimate,
      6);
  // Unknown category matches nothing.
  EXPECT_DOUBLE_EQ(
      ExecuteExactSql(t, "SELECT COUNT(x) FROM e WHERE g = 'zz';")
          ->Scalar()
          .estimate,
      0);
}

TEST(ExactTest, GroupBy) {
  Table t = MakeExactTable();
  auto r = ExecuteExactSql(t, "SELECT SUM(x) FROM e GROUP BY g;");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->groups.size(), 2u);
  // Groups ordered by code: "low"=0 inserted first.
  EXPECT_EQ(r->groups[0].label, "low");
  EXPECT_DOUBLE_EQ(r->groups[0].agg.estimate, 1 + 2 + 3 + 4);
  EXPECT_EQ(r->groups[1].label, "high");
  EXPECT_DOUBLE_EQ(r->groups[1].agg.estimate, 5 + 6 + 7 + 8 + 9 + 10);
}

TEST(ExactTest, EmptySelectionFlagged) {
  Table t = MakeExactTable();
  auto r = ExecuteExactSql(t, "SELECT AVG(x) FROM e WHERE x > 100;");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Scalar().empty_selection);
  EXPECT_TRUE(std::isnan(r->Scalar().estimate));
  auto c = ExecuteExactSql(t, "SELECT COUNT(x) FROM e WHERE x > 100;");
  EXPECT_DOUBLE_EQ(c->Scalar().estimate, 0);
}

TEST(ExactTest, UnknownColumnFails) {
  Table t = MakeExactTable();
  EXPECT_FALSE(ExecuteExactSql(t, "SELECT COUNT(zz) FROM e;").ok());
  EXPECT_FALSE(
      ExecuteExactSql(t, "SELECT COUNT(x) FROM e WHERE zz > 1;").ok());
}

TEST(ExactTest, SelectivityHelper) {
  Table t = MakeExactTable();
  auto q = ParseSql("SELECT COUNT(x) FROM e WHERE x > 5;");
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(ExactSelectivity(t, *q).value(), 0.5);
  auto all = ParseSql("SELECT COUNT(x) FROM e;");
  EXPECT_DOUBLE_EQ(ExactSelectivity(t, *all).value(), 1.0);
}

}  // namespace
}  // namespace pairwisehist
