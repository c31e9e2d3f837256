#include "query/ast.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace pairwisehist {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kMedian:
      return "MEDIAN";
    case AggFunc::kVar:
      return "VAR";
  }
  return "?";
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
  }
  return "?";
}

namespace {

void CollectColumns(const PredicateNode& node, std::vector<std::string>* out) {
  if (node.type == PredicateNode::Type::kCondition) {
    if (std::find(out->begin(), out->end(), node.condition.column) ==
        out->end()) {
      out->push_back(node.condition.column);
    }
    return;
  }
  for (const auto& child : node.children) CollectColumns(child, out);
}

/// True when `pred` holds for every condition of the tree (depth-first,
/// stopping at the first that fails).
template <typename Pred>
bool AllConditions(const PredicateNode& node, const Pred& pred) {
  if (node.type == PredicateNode::Type::kCondition) {
    return pred(node.condition);
  }
  for (const auto& child : node.children) {
    if (!AllConditions(child, pred)) return false;
  }
  return true;
}

// Writes a numeric literal that ParseSql reads back to the same double:
// integral values below 1e15 in magnitude (but -0) as plain integers, every
// other value in the shortest form that round-trips (std::to_chars). ToSql is the plan-cache
// and batch-dedup key, so two distinct literals must never print alike.
void AppendNumber(double v, std::string* out) {
  char buf[32];  // the shortest round-trip form needs at most 24
  std::to_chars_result r;
  if (std::abs(v) < 1e15 && v == std::trunc(v) &&
      !(v == 0 && std::signbit(v))) {
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v));
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), v);
  }
  out->append(buf, r.ptr);
}

void NodeToSql(const PredicateNode& node, bool parenthesize,
               std::string* out) {
  if (node.type == PredicateNode::Type::kCondition) {
    const Condition& c = node.condition;
    *out += c.column;
    *out += ' ';
    *out += CmpOpName(c.op);
    *out += ' ';
    if (c.is_string) {
      *out += '\'';
      for (char ch : c.text_value) {
        *out += ch;
        if (ch == '\'') *out += '\'';  // doubled, as ParseSql reads it
      }
      *out += '\'';
    } else {
      AppendNumber(c.value, out);
    }
    return;
  }
  const char* joiner =
      node.type == PredicateNode::Type::kAnd ? " AND " : " OR ";
  if (parenthesize) *out += '(';
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i) *out += joiner;
    const PredicateNode& child = node.children[i];
    bool child_parens = child.type != PredicateNode::Type::kCondition;
    NodeToSql(child, child_parens, out);
  }
  if (parenthesize) *out += ')';
}

}  // namespace

std::vector<std::string> Query::PredicateColumns() const {
  std::vector<std::string> cols;
  if (where.has_value()) CollectColumns(*where, &cols);
  return cols;
}

bool Query::SingleColumn() const {
  if (!where.has_value()) return true;
  // COUNT(*) is single-column when its predicates share one column; any
  // other aggregate when they all sit on the aggregation column.
  const std::string* column = count_star ? nullptr : &agg_column;
  return AllConditions(*where, [&](const Condition& c) {
    if (column == nullptr) column = &c.column;
    return c.column == *column;
  });
}

std::string Query::ToSql() const {
  std::string sql = "SELECT ";
  sql += AggFuncName(func);
  sql += '(';
  sql += count_star ? "*" : agg_column;
  sql += ") FROM ";
  sql += table.empty() ? "t" : table;
  if (where.has_value()) {
    sql += " WHERE ";
    NodeToSql(*where, /*parenthesize=*/false, &sql);
  }
  if (!group_by.empty()) {
    sql += " GROUP BY ";
    sql += group_by;
  }
  sql += ';';
  return sql;
}

}  // namespace pairwisehist
