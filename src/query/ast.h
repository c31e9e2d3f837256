// Query AST shared by the SQL parser, the exact engine and the AQP engines.
//
// The supported query shape is the paper's problem definition (Section 3):
//   SELECT F(Xi) FROM D WHERE P1 AND/OR P2 ... GROUP BY Xg;
// with F in {COUNT, SUM, AVG, MIN, MAX, MEDIAN, VAR}, predicates of the form
// "Xj OP literal" (OP in <, >, <=, >=, =, !=) combined with arbitrary
// AND/OR nesting (AND binds tighter), and GROUP BY on a categorical column.
#ifndef PAIRWISEHIST_QUERY_AST_H_
#define PAIRWISEHIST_QUERY_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace pairwisehist {

/// Supported aggregation functions (Table 3).
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax, kMedian, kVar };

const char* AggFuncName(AggFunc f);

/// Binary comparison operators for predicate conditions.
enum class CmpOp { kLt, kLe, kGt, kGe, kEq, kNe };

const char* CmpOpName(CmpOp op);

/// A leaf predicate: column OP literal.
struct Condition {
  std::string column;
  CmpOp op = CmpOp::kEq;
  double value = 0;        ///< numeric literal (unused if is_string)
  std::string text_value;  ///< string literal for categorical columns
  bool is_string = false;
};

/// Predicate tree node. AND/OR nodes have >= 2 children.
struct PredicateNode {
  enum class Type { kCondition, kAnd, kOr };
  Type type = Type::kCondition;
  Condition condition;                  ///< when type == kCondition
  std::vector<PredicateNode> children;  ///< when type is kAnd / kOr
};

/// A parsed query.
struct Query {
  AggFunc func = AggFunc::kCount;
  std::string agg_column;  ///< empty for COUNT(*)
  bool count_star = false;
  std::string table;
  std::optional<PredicateNode> where;
  std::string group_by;  ///< empty when not grouped

  /// Collects the distinct predicate column names (in first-seen order).
  std::vector<std::string> PredicateColumns() const;
  /// True if the query touches a single column only (aggregation and every
  /// predicate) — enables the Table-3 "1-d" special cases for MIN/MAX.
  bool SingleColumn() const;
  /// The query as SQL text. For any query ParseSql produces, ParseSql
  /// reads the text back to the same query bit for bit: numbers are in
  /// shortest round-trip form and quotes inside string literals doubled.
  /// Distinct parsed queries therefore never share a text, which is what
  /// lets the serving plan cache and Db::PrepareBatch key on it.
  std::string ToSql() const;
};

/// Result of one aggregation: the estimate plus lower/upper bounds.
/// Exact engines return estimate == lower == upper.
struct AggResult {
  double estimate = 0;
  double lower = 0;
  double upper = 0;
  /// True when no (estimated) rows satisfy the predicate; non-COUNT
  /// aggregates are then undefined and estimate/bounds are NaN.
  bool empty_selection = false;
};

/// A full query result: one AggResult per group (single unnamed group when
/// there is no GROUP BY).
struct QueryResult {
  struct Group {
    std::string label;  ///< group value as text; "" for ungrouped
    AggResult agg;
  };
  std::vector<Group> groups;

  /// Convenience for ungrouped queries.
  const AggResult& Scalar() const { return groups.at(0).agg; }
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_QUERY_AST_H_
