// Differential test of ParseSql (query/sql_parser.h) against the original
// parser kept in tests/oracle/reference_parser.h. On every input both must
// give an identical Query (literals compared bit for bit) or the same
// Status code and message. The only differences allowed are the ones the
// library's parser makes on purpose, each enumerated below: NaN, infinity,
// hexadecimal and out-of-range numeric literals are rejected, and
// parentheses nest at most kMaxSqlNesting deep.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "query/sql_parser.h"
#include "tests/oracle/reference_parser.h"
#include "tests/statement_pool.h"

namespace pairwisehist {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameNode(const PredicateNode& a, const PredicateNode& b) {
  const Condition& x = a.condition;
  const Condition& y = b.condition;
  if (a.type != b.type || x.column != y.column || x.op != y.op ||
      !SameBits(x.value, y.value) || x.text_value != y.text_value ||
      x.is_string != y.is_string || a.children.size() != b.children.size()) {
    return false;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!SameNode(a.children[i], b.children[i])) return false;
  }
  return true;
}

bool SameQuery(const Query& a, const Query& b) {
  return a.func == b.func && a.agg_column == b.agg_column &&
         a.count_star == b.count_star && a.table == b.table &&
         a.group_by == b.group_by &&
         a.where.has_value() == b.where.has_value() &&
         (!a.where.has_value() || SameNode(*a.where, *b.where));
}

// Deepest run of open parentheses outside string literals.
int MaxNesting(const std::string& sql) {
  int depth = 0, deepest = 0;
  char quote = 0;
  for (char c : sql) {
    if (quote != 0) {
      if (c == quote) quote = 0;  // a doubled quote reopens at once
    } else if (c == '\'' || c == '"') {
      quote = c;
    } else if (c == '(') {
      deepest = std::max(deepest, ++depth);
    } else if (c == ')') {
      --depth;
    }
  }
  return deepest;
}

/// True when ParseSql's error is one of the deliberate differences and
/// the input really has that form at the reported offset.
bool IsDeliberateDifference(const std::string& sql, const Status& got) {
  const std::string& msg = got.message();
  const char* kinds[] = {"non-finite literal", "hexadecimal literal",
                         "numeric literal out of range", "nesting too deep"};
  std::string kind;
  for (const char* k : kinds) {
    if (msg.rfind(std::string("SQL: ") + k + " at offset ", 0) == 0) kind = k;
  }
  if (got.ok() || kind.empty()) return false;
  const size_t offset = std::stoul(msg.substr(msg.rfind(' ') + 1));
  if (offset >= sql.size()) return false;
  std::string lit = sql.substr(offset);
  for (char& c : lit) c = static_cast<char>(std::tolower(c));
  const bool signed_lit = lit[0] == '-' || lit[0] == '+';
  const std::string unsigned_lit = signed_lit ? lit.substr(1) : lit;
  auto starts = [&](const char* prefix) {
    return unsigned_lit.rfind(prefix, 0) == 0;
  };
  if (kind == "non-finite literal") {
    return signed_lit && (starts("inf") || starts("nan"));
  }
  if (kind == "hexadecimal literal") return starts("0x");
  if (kind == "numeric literal out of range") {
    return std::fabs(std::strtod(sql.c_str() + offset, nullptr)) == HUGE_VAL;
  }
  return MaxNesting(sql) > kMaxSqlNesting && sql[offset] == '(';
}

// Compares the two parsers on one input; returns true when they agree.
// Inputs deeper than the reference parser's stack can take are never
// passed here (the library's own limit test covers them).
bool Agree(const std::string& sql, size_t* deliberate = nullptr) {
  StatusOr<Query> got = ParseSql(sql);
  StatusOr<Query> want = oracle::ReferenceParseSql(sql);
  if (got.ok() && want.ok()) {
    EXPECT_TRUE(SameQuery(got.value(), want.value())) << sql;
    return SameQuery(got.value(), want.value());
  }
  if (!got.ok() && !want.ok() && got.status().code() == want.status().code() &&
      got.status().message() == want.status().message()) {
    return true;
  }
  if (IsDeliberateDifference(sql, got.status())) {
    if (deliberate != nullptr) ++*deliberate;
    return true;
  }
  ADD_FAILURE() << sql << "\n  ParseSql: " << got.status().ToString()
                << "\n  reference: " << want.status().ToString();
  return false;
}

TEST(SqlParserDiff, GeneratorPoolsOfSeveralSeeds) {
  size_t compared = 0;
  for (const char* dataset : {"power", "taxis", "flights"}) {
    auto table = MakeDataset(dataset, 5000, 1);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    for (uint64_t seed : {1, 2, 3}) {
      for (const std::string& sql :
           StatementPool(table.value(), seed, /*per_stratum=*/6)) {
        ASSERT_TRUE(ParseSql(sql).ok()) << sql;
        ASSERT_TRUE(Agree(sql));
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 3u * 3u * 35u * 6u / 2u);
}

// Every input of SqlParserTest (query_test.cc), plus the edge forms the
// lexer distinguishes.
TEST(SqlParserDiff, ParserTestInputsAndEdgeForms) {
  const char* inputs[] = {
      "SELECT COUNT(*) FROM flights",
      "SELECT COUNT(x) FROM t;",
      "SELECT SUM(x) FROM t;",
      "SELECT AVG(x) FROM t;",
      "SELECT MEAN(x) FROM t;",
      "SELECT MIN(x) FROM t;",
      "SELECT MAX(x) FROM t;",
      "SELECT MEDIAN(x) FROM t;",
      "SELECT VAR(x) FROM t;",
      "SELECT VARIANCE(x) FROM t;",
      "select avg(delay) from d where x > 3 group by carrier",
      "SELECT COUNT(x) FROM t WHERE x < 5;",
      "SELECT COUNT(x) FROM t WHERE x <= 5;",
      "SELECT COUNT(x) FROM t WHERE x > 5;",
      "SELECT COUNT(x) FROM t WHERE x >= 5;",
      "SELECT COUNT(x) FROM t WHERE x = 5;",
      "SELECT COUNT(x) FROM t WHERE x == 5;",
      "SELECT COUNT(x) FROM t WHERE x != 5;",
      "SELECT COUNT(x) FROM t WHERE x <> 5;",
      "SELECT COUNT(x) FROM t WHERE a > 1 AND b < 2 OR c = 3;",
      "SELECT COUNT(x) FROM t WHERE a > 1 AND (b < 2 OR c = 3);",
      "SELECT AVG(delay) FROM f WHERE airline = 'AA' AND org != \"JFK\";",
      "SELECT COUNT(x) FROM t WHERE c = 'O''Hare';",
      "SELECT COUNT(x) FROM t WHERE c = \"say \"\"hi\"\"\";",
      "SELECT COUNT(x) FROM t WHERE c = '';",
      "SELECT COUNT(x) FROM t WHERE a > -12.5;",
      "SELECT FROB(x) FROM t;",
      "SELECT COUNT(x) FROM t WHERE ;",
      "SELECT COUNT(x) t;",
      "SELECT MIN(*) FROM t;",
      "SELECT COUNT(x) FROM t WHERE a >;",
      "SELECT COUNT(x) FROM t WHERE (a > 1;",
      "SELECT COUNT(x) FROM t WHERE a > 'unterminated",
      "SELECT COUNT(x) FROM t extra;",
      "SELECT AVG(delay) FROM f WHERE (a > 1 AND b <= 2) OR c != 'x';",
      "SELECT SUM(x) FROM t WHERE x > 1 AND y < 2 AND x < 10;",
      "SELECT SUM(x) FROM t WHERE x > 1 AND x < 9;",
      "SELECT COUNT(x) FROM e WHERE x > 5;",
      "SELECT COUNT(x) FROM e;",
      // Number forms strtod and the decimal grammar read alike.
      "SELECT COUNT(x) FROM t WHERE x < +5;",
      "SELECT COUNT(x) FROM t WHERE x < .5e1;",
      "SELECT COUNT(x) FROM t WHERE x < 7.;",
      "SELECT COUNT(x) FROM t WHERE x < -.5;",
      "SELECT COUNT(x) FROM t WHERE x < 1e-400;",
      "SELECT COUNT(x) FROM t WHERE x < -1e-400;",
      "SELECT COUNT(x) FROM t WHERE x < 00012.5e+1;",
      "SELECT COUNT(x) FROM t WHERE x < 1e;",
      "SELECT COUNT(x) FROM t WHERE x < 1e+;",
      "SELECT COUNT(x) FROM t WHERE x < 1.e5;",
      "SELECT COUNT(x) FROM t WHERE x < 1.5.5;",
      "SELECT COUNT(x) FROM t WHERE x < 12abc;",
      "SELECT COUNT(x) FROM t WHERE x < 00x10;",
      "SELECT COUNT(x) FROM t WHERE x < - 5;",
      "SELECT COUNT(x) FROM t WHERE x < .;",
      "SELECT COUNT(x) FROM t WHERE x < -;",
      "SELECT COUNT(x) FROM t WHERE x < -i;",
      "SELECT COUNT(x) FROM t WHERE x < nan;",
      "SELECT COUNT(x) FROM t WHERE x < inf;",
      "SELECT COUNT(x) FROM t WHERE x < 4.9406564584124654e-324;",
      "SELECT COUNT(x) FROM t WHERE x < 2.4703282292062327e-324;",
      "SELECT COUNT(x) FROM t WHERE x < 1.7976931348623157e308;",
      // Identifier, symbol and whitespace forms.
      "SELECT COUNT(t.x) FROM t WHERE t.x_1 >= 2 GROUP BY g.h;",
      "\tSELECT\nCOUNT ( * )\rFROM\vt\f;",
      "SELECT COUNT(x) FROM t WHERE x ! 5;",
      "SELECT COUNT(x) FROM t WHERE x =< 5;",
      "SELECT COUNT(x) FROM t WHERE x @ 5;",
      "SELECT COUNT(x) FROM t WHERE x < 5 GROUP g;",
      "SELECT COUNT(x) FROM t WHERE x < 5 GROUP BY 3;",
      "SELECT COUNT(x) FROM t WHERE x < 5;;",
      "SELECT COUNT(x) FROM 5;",
      "SELECT 5(x) FROM t;",
      "SELECT COUNT(5) FROM t;",
      "SELECT COUNT x FROM t;",
      "SELECT COUNT(x FROM t;",
      "",
      "   ",
      "SELECT",
      "SELECT COUNT(x) FROM t WHERE ((a > 1) AND ((b < 2)));",
      "SELECT COUNT(x) FROM t WHERE a > 1 OR b < 2 OR c > 3 AND d < 4;",
      "SELECT COUNT(x) FROM t WHERE (a > 1 OR b < 2)) ;",
      "SELECT COUNT(x) FROM t WHERE a > 'x' 'y';",
      "SELECT frob x",
      "SELECT COUNT(x) FROM t WHERE \xc3\xa9 > 1;",
  };
  for (const char* sql : inputs) EXPECT_TRUE(Agree(sql));

  // Embedded NUL bytes are ordinary input bytes to both parsers.
  EXPECT_TRUE(Agree(std::string("SELECT COUNT(x) FROM t WHERE x < 1\0;", 37)));
  EXPECT_TRUE(Agree(std::string("SELECT COUNT(x) FROM t WHERE x < '\0';", 38)));
}

// Every byte-offset truncation of a few long statements, and every
// single-byte substitution from an alphabet of the lexer's decision bytes.
TEST(SqlParserDiff, TruncationsAndSubstitutions) {
  const std::string statements[] = {
      "SELECT MEDIAN(global_active_power) FROM power WHERE (voltage >= "
      "236.25 OR hour < 6) AND global_intensity <= 1.5e1 AND sub_metering_1 "
      "!= -0.5 GROUP BY day_of_week;",
      "select var(fare) from taxis where (company = 'Flash''s Cab' or "
      "payment_type <> \"Cash\") and ((trip_miles > .25 and trip_seconds < "
      "+3600.) or tips == 0);",
      "SELECT COUNT(*) FROM flights WHERE ((dep_delay > -15 AND arr_delay < "
      "1E+2) OR (distance >= 1000 AND carrier = 'AA')) OR taxi_out <= 7.5e-1;",
  };
  const char alphabet[] = "()'\"-+.eEx0 9;<=>!,*_a\t";
  size_t compared = 0, deliberate = 0;
  for (const std::string& sql : statements) {
    for (size_t n = 0; n <= sql.size(); ++n) {
      ASSERT_TRUE(Agree(sql.substr(0, n))) << "truncated at " << n;
      ++compared;
    }
    for (size_t i = 0; i < sql.size(); ++i) {
      for (size_t a = 0; a + 1 < sizeof(alphabet); ++a) {
        std::string mutated = sql;
        mutated[i] = alphabet[a];
        ASSERT_TRUE(Agree(mutated, &deliberate)) << "substituted at " << i;
        ++compared;
      }
    }
  }
  // Substituting 'x' after a lone 0 must have produced hex literals.
  EXPECT_GT(deliberate, 0u);
  EXPECT_GT(compared, 1000u);
}

// The deliberate differences, one input each: the reference parser accepts
// every one of them; ParseSql rejects each with a positioned error.
TEST(SqlParserDiff, EnumeratedDifferences) {
  const std::string prefix = "SELECT COUNT(x) FROM t WHERE x < ";
  const std::string at = std::to_string(prefix.size());
  const std::pair<std::string, std::string> cases[] = {
      {prefix + "-nan;", "SQL: non-finite literal at offset " + at},
      {prefix + "+NAN(1);", "SQL: non-finite literal at offset " + at},
      {prefix + "+inf;", "SQL: non-finite literal at offset " + at},
      {prefix + "-infinity;", "SQL: non-finite literal at offset " + at},
      {prefix + "0x10;", "SQL: hexadecimal literal at offset " + at},
      {prefix + "-0X1p4;", "SQL: hexadecimal literal at offset " + at},
      {prefix + "1e400;", "SQL: numeric literal out of range at offset " + at},
      {prefix + "-2e308;",
       "SQL: numeric literal out of range at offset " + at},
  };
  for (const auto& [sql, message] : cases) {
    auto want = oracle::ReferenceParseSql(sql);
    ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
    auto got = ParseSql(sql);
    ASSERT_FALSE(got.ok()) << sql;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message(), message) << sql;
  }
  // Nesting: the reference parser takes any depth its stack holds (a
  // release build overflows at 10,000 levels, a sanitizer build sooner);
  // ParseSql stops at the first '(' past kMaxSqlNesting and agrees with it
  // below.
  auto nested = [](int depth) {
    return "SELECT COUNT(*) FROM t WHERE " + std::string(depth, '(') +
           "x > 1" + std::string(depth, ')');
  };
  EXPECT_TRUE(Agree(nested(kMaxSqlNesting)));
  for (int depth : {kMaxSqlNesting + 1, 4 * kMaxSqlNesting}) {
    ASSERT_TRUE(oracle::ReferenceParseSql(nested(depth)).ok()) << depth;
    auto got = ParseSql(nested(depth));
    ASSERT_FALSE(got.ok()) << depth;
    EXPECT_EQ(got.status().message(),
              "SQL: nesting too deep at offset " +
                  std::to_string(29 + kMaxSqlNesting));
  }
}

}  // namespace
}  // namespace pairwisehist
