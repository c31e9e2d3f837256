#include "query/exact.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "query/sql_parser.h"

namespace pairwisehist {

namespace {

// Predicate tree with resolved column indices and categorical literals.
struct ResolvedNode {
  PredicateNode::Type type = PredicateNode::Type::kCondition;
  size_t column = 0;
  CmpOp op = CmpOp::kEq;
  double value = 0;
  std::vector<ResolvedNode> children;
};

StatusOr<ResolvedNode> Resolve(const Table& table, const PredicateNode& node) {
  ResolvedNode out;
  out.type = node.type;
  if (node.type == PredicateNode::Type::kCondition) {
    const Condition& c = node.condition;
    PH_ASSIGN_OR_RETURN(out.column, table.ColumnIndex(c.column));
    out.op = c.op;
    if (c.is_string) {
      const Column& col = table.column(out.column);
      if (col.type() != DataType::kCategorical) {
        return Status::InvalidArgument("string literal on non-categorical '" +
                                       c.column + "'");
      }
      auto code = col.CategoryCode(c.text_value);
      // Unknown categories match nothing (handled with a sentinel).
      out.value = code.ok() ? static_cast<double>(code.value()) : -1.0;
    } else {
      out.value = c.value;
    }
    return out;
  }
  for (const auto& child : node.children) {
    PH_ASSIGN_OR_RETURN(ResolvedNode rc, Resolve(table, child));
    out.children.push_back(std::move(rc));
  }
  return out;
}

bool EvalCondition(const ResolvedNode& n, const Table& table, size_t row) {
  const Column& col = table.column(n.column);
  if (col.IsNull(row)) return false;  // SQL: NULL comparisons are not true
  double v = col.Value(row);
  switch (n.op) {
    case CmpOp::kLt:
      return v < n.value;
    case CmpOp::kLe:
      return v <= n.value;
    case CmpOp::kGt:
      return v > n.value;
    case CmpOp::kGe:
      return v >= n.value;
    case CmpOp::kEq:
      return v == n.value;
    case CmpOp::kNe:
      return v != n.value;
  }
  return false;
}

bool RowMatches(const ResolvedNode& n, const Table& table, size_t row) {
  switch (n.type) {
    case PredicateNode::Type::kCondition:
      return EvalCondition(n, table, row);
    case PredicateNode::Type::kAnd:
      for (const auto& c : n.children) {
        if (!RowMatches(c, table, row)) return false;
      }
      return true;
    case PredicateNode::Type::kOr:
      for (const auto& c : n.children) {
        if (RowMatches(c, table, row)) return true;
      }
      return false;
  }
  return false;
}

// Aggregates a collected value vector.
AggResult Aggregate(AggFunc func, std::vector<double>& values,
                    uint64_t count_star_rows, bool count_star) {
  AggResult r;
  if (func == AggFunc::kCount) {
    r.estimate = count_star ? static_cast<double>(count_star_rows)
                            : static_cast<double>(values.size());
    r.lower = r.upper = r.estimate;
    return r;
  }
  if (values.empty()) {
    r.empty_selection = true;
    r.estimate = r.lower = r.upper =
        std::numeric_limits<double>::quiet_NaN();
    return r;
  }
  switch (func) {
    case AggFunc::kSum: {
      double s = 0;
      for (double v : values) s += v;
      r.estimate = s;
      break;
    }
    case AggFunc::kAvg: {
      double s = 0;
      for (double v : values) s += v;
      r.estimate = s / values.size();
      break;
    }
    case AggFunc::kMin:
      r.estimate = *std::min_element(values.begin(), values.end());
      break;
    case AggFunc::kMax:
      r.estimate = *std::max_element(values.begin(), values.end());
      break;
    case AggFunc::kMedian: {
      size_t mid = values.size() / 2;
      std::nth_element(values.begin(), values.begin() + mid, values.end());
      double hi = values[mid];
      if (values.size() % 2 == 0) {
        double lo =
            *std::max_element(values.begin(), values.begin() + mid);
        r.estimate = (lo + hi) / 2.0;
      } else {
        r.estimate = hi;
      }
      break;
    }
    case AggFunc::kVar: {
      // Population variance, matching the paper's estimator
      // E[x^2] - E[x]^2.
      double s = 0, s2 = 0;
      for (double v : values) {
        s += v;
        s2 += v * v;
      }
      double mean = s / values.size();
      r.estimate = std::max(0.0, s2 / values.size() - mean * mean);
      break;
    }
    case AggFunc::kCount:
      break;  // handled above
  }
  r.lower = r.upper = r.estimate;
  return r;
}

std::string GroupLabel(const Column& col, double code) {
  if (col.type() == DataType::kCategorical) {
    auto name = col.CategoryName(static_cast<int64_t>(code));
    if (name.ok()) return name.value();
  }
  char buf[64];
  if (code == static_cast<long long>(code)) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(code));
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", code);
  }
  return buf;
}

}  // namespace

StatusOr<QueryResult> ExecuteExact(const Table& table, const Query& query) {
  std::optional<ResolvedNode> where;
  if (query.where.has_value()) {
    PH_ASSIGN_OR_RETURN(ResolvedNode node, Resolve(table, *query.where));
    where = std::move(node);
  }
  const Column* agg_col = nullptr;
  if (!query.count_star) {
    PH_ASSIGN_OR_RETURN(size_t idx, table.ColumnIndex(query.agg_column));
    agg_col = &table.column(idx);
  }
  const Column* group_col = nullptr;
  if (!query.group_by.empty()) {
    PH_ASSIGN_OR_RETURN(size_t idx, table.ColumnIndex(query.group_by));
    group_col = &table.column(idx);
  }

  // group code -> (values, row count). Ungrouped uses the single key 0.
  std::map<double, std::pair<std::vector<double>, uint64_t>> groups;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (where.has_value() && !RowMatches(*where, table, r)) continue;
    double key = 0;
    if (group_col != nullptr) {
      if (group_col->IsNull(r)) continue;  // NULL groups are dropped
      key = group_col->Value(r);
    }
    auto& slot = groups[key];
    ++slot.second;
    if (agg_col != nullptr && !agg_col->IsNull(r)) {
      slot.first.push_back(agg_col->Value(r));
    }
  }

  QueryResult result;
  if (groups.empty() && group_col == nullptr) {
    groups[0];  // materialize the empty ungrouped group
  }
  for (auto& [key, slot] : groups) {
    QueryResult::Group g;
    g.label = group_col == nullptr ? "" : GroupLabel(*group_col, key);
    g.agg = Aggregate(query.func, slot.first, slot.second, query.count_star);
    result.groups.push_back(std::move(g));
  }
  return result;
}

StatusOr<QueryResult> ExecuteExactSql(const Table& table,
                                      const std::string& sql) {
  PH_ASSIGN_OR_RETURN(Query q, ParseSql(sql));
  return ExecuteExact(table, q);
}

StatusOr<double> ExactSelectivity(const Table& table, const Query& query) {
  if (!query.where.has_value()) return 1.0;
  if (table.NumRows() == 0) return 0.0;
  PH_ASSIGN_OR_RETURN(ResolvedNode node, Resolve(table, *query.where));
  uint64_t hits = 0;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (RowMatches(node, table, r)) ++hits;
  }
  return static_cast<double>(hits) / table.NumRows();
}

}  // namespace pairwisehist
