#include "query/sql_parser.h"

#include <charconv>
#include <cstdint>
#include <string>
#include <utility>

namespace pairwisehist {

namespace {

enum class TokenType {
  kIdent,
  kNumber,
  kString,
  kSymbol,  // operators and punctuation
  kEnd,
};

// A token views the statement text; the parser copies only what it stores
// in the Query.
struct Token {
  TokenType type = TokenType::kEnd;
  /// Identifier or symbol spelling; for a string literal the text between
  /// the quotes, doubled quotes still in.
  std::string_view text;
  double number = 0;
  size_t pos = 0;      // byte offset for error messages
  char escaped = 0;    // string literal: the quote it doubles inside, or 0
};

// ASCII classes, as <cctype> classifies them in the "C" locale.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
char ToUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

/// Case-insensitive match of `text` against an upper-case keyword.
bool EqualsKeyword(std::string_view text, std::string_view kw) {
  if (text.size() != kw.size()) return false;
  for (size_t i = 0; i < kw.size(); ++i) {
    if (ToUpper(text[i]) != kw[i]) return false;
  }
  return true;
}

bool StartsWithKeyword(std::string_view text, std::string_view kw) {
  return text.size() >= kw.size() &&
         EqualsKeyword(text.substr(0, kw.size()), kw);
}

Status ErrorAt(std::string_view what, size_t pos) {
  std::string msg = "SQL: ";
  msg += what;
  msg += " at offset ";
  msg += std::to_string(pos);
  return Status::InvalidArgument(std::move(msg));
}

class Lexer {
 public:
  explicit Lexer(std::string_view input) : in_(input) {}

  Status Next(Token* t) {
    while (pos_ < in_.size() && IsSpace(in_[pos_])) ++pos_;
    t->pos = pos_;
    t->escaped = 0;
    if (pos_ >= in_.size()) {
      t->type = TokenType::kEnd;
      t->text = {};
      return Status::OK();
    }
    const char c = in_[pos_];
    if (IsAlpha(c) || c == '_') {
      const size_t start = pos_;
      while (pos_ < in_.size() && (IsAlpha(in_[pos_]) || IsDigit(in_[pos_]) ||
                                   in_[pos_] == '_' || in_[pos_] == '.')) {
        ++pos_;
      }
      t->type = TokenType::kIdent;
      t->text = in_.substr(start, pos_ - start);
      return Status::OK();
    }
    if (IsDigit(c) || c == '-' || c == '+' || c == '.') {
      bool is_number = false;
      PH_RETURN_IF_ERROR(LexNumber(t, &is_number));
      if (is_number) return Status::OK();
    }
    if (c == '\'' || c == '"') return LexString(t);
    // Multi-char operators first.
    t->type = TokenType::kSymbol;
    const std::string_view two = in_.substr(pos_, 2);
    for (std::string_view op : {"<=", ">=", "!=", "<>", "=="}) {
      if (two == op) {
        t->text = two;
        pos_ += 2;
        return Status::OK();
      }
    }
    t->text = in_.substr(pos_++, 1);
    return Status::OK();
  }

 private:
  size_t SkipDigits(size_t p) const {
    while (p < in_.size() && IsDigit(in_[p])) ++p;
    return p;
  }

  /// A decimal literal per the grammar in sql_parser.h, read with
  /// std::from_chars. Leaves *is_number false (consuming nothing) when the
  /// text at pos_ is no number, so the caller lexes a symbol instead.
  Status LexNumber(Token* t, bool* is_number) {
    const size_t start = pos_;
    const bool sign = in_[start] == '-' || in_[start] == '+';
    const size_t int_begin = start + (sign ? 1 : 0);
    size_t p = SkipDigits(int_begin);
    const size_t int_end = p;
    if (int_end - int_begin == 1 && in_[int_begin] == '0' && p < in_.size() &&
        (in_[p] == 'x' || in_[p] == 'X')) {
      return ErrorAt("hexadecimal literal", start);
    }
    size_t frac_begin = p, frac_end = p;
    if (p < in_.size() && in_[p] == '.') {
      frac_begin = p + 1;
      frac_end = SkipDigits(frac_begin);
      if (int_end > int_begin || frac_end > frac_begin) p = frac_end;
    }
    if (p == int_begin) {
      const std::string_view rest = in_.substr(int_begin);
      if (sign && (StartsWithKeyword(rest, "INF") ||
                   StartsWithKeyword(rest, "NAN"))) {
        return ErrorAt("non-finite literal", start);
      }
      return Status::OK();
    }
    int64_t exp = 0;
    if (p < in_.size() && (in_[p] == 'e' || in_[p] == 'E')) {
      size_t q = p + 1;
      const bool neg_exp = q < in_.size() && in_[q] == '-';
      if (q < in_.size() && (in_[q] == '+' || in_[q] == '-')) ++q;
      if (q < in_.size() && IsDigit(in_[q])) {
        for (; q < in_.size() && IsDigit(in_[q]); ++q) {
          if (exp < 1000000) exp = exp * 10 + (in_[q] - '0');
        }
        if (neg_exp) exp = -exp;
        p = q;
      }
    }
    // from_chars takes no leading '+'.
    const char* first = in_.data() + start + (in_[start] == '+' ? 1 : 0);
    const char* last = in_.data() + p;
    double v = 0;
    const std::from_chars_result r = std::from_chars(first, last, v);
    if (r.ec == std::errc::result_out_of_range) {
      // Too large or too small for a double: the decimal exponent of the
      // leading nonzero digit tells which (the literal is nonzero, or it
      // would be in range). Too small reads as a signed zero, like strtod.
      int64_t lead = 0;
      size_t i = int_begin;
      while (i < int_end && in_[i] == '0') ++i;
      if (i < int_end) {
        lead = static_cast<int64_t>(int_end - i) - 1;
      } else {
        for (i = frac_begin; i < frac_end && in_[i] == '0'; ++i) --lead;
        --lead;
      }
      if (lead + exp >= 0) {
        return ErrorAt("numeric literal out of range", start);
      }
      v = in_[start] == '-' ? -0.0 : 0.0;
    } else if (r.ec != std::errc() || r.ptr != last) {
      return ErrorAt("malformed numeric literal", start);
    }
    t->type = TokenType::kNumber;
    t->number = v;
    t->text = in_.substr(start, p - start);
    pos_ = p;
    *is_number = true;
    return Status::OK();
  }

  Status LexString(Token* t) {
    const char quote = in_[pos_];
    const size_t start = ++pos_;
    for (;;) {
      const size_t q = in_.find(quote, pos_);
      if (q == std::string_view::npos) {
        pos_ = in_.size();
        return ErrorAt("unterminated string", start - 1);
      }
      if (q + 1 < in_.size() && in_[q + 1] == quote) {
        t->escaped = quote;
        pos_ = q + 2;
        continue;
      }
      t->type = TokenType::kString;
      t->text = in_.substr(start, q - start);
      pos_ = q + 1;  // past the closing quote
      return Status::OK();
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
};

/// A string literal's value: its text with doubled quotes undoubled.
std::string StringValue(const Token& t) {
  if (t.escaped == 0) return std::string(t.text);
  std::string s;
  s.reserve(t.text.size());
  for (size_t i = 0; i < t.text.size(); ++i) {
    s += t.text[i];
    if (t.text[i] == t.escaped) ++i;  // skip the doubling quote
  }
  return s;
}

class Parser {
 public:
  explicit Parser(std::string_view sql) : lexer_(sql) {}

  StatusOr<Query> Parse() {
    PH_RETURN_IF_ERROR(Advance());
    PH_RETURN_IF_ERROR(ExpectKeyword("SELECT"));

    Query q;
    PH_ASSIGN_OR_RETURN(q.func, ParseAggFunc());
    PH_RETURN_IF_ERROR(ExpectSymbol('('));
    if (IsSymbol('*')) {
      q.count_star = true;
      if (q.func != AggFunc::kCount) {
        return Status::InvalidArgument(
            "SQL: '*' argument is only valid for COUNT");
      }
      PH_RETURN_IF_ERROR(Advance());
    } else if (cur_.type == TokenType::kIdent) {
      q.agg_column = cur_.text;
      PH_RETURN_IF_ERROR(Advance());
    } else {
      return ErrorHere("expected column name or '*'");
    }
    PH_RETURN_IF_ERROR(ExpectSymbol(')'));
    PH_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    if (cur_.type != TokenType::kIdent) {
      return ErrorHere("expected table name");
    }
    q.table = cur_.text;
    PH_RETURN_IF_ERROR(Advance());

    if (IsKeyword("WHERE")) {
      PH_RETURN_IF_ERROR(Advance());
      PH_ASSIGN_OR_RETURN(PredicateNode node,
                          ParseList(PredicateNode::Type::kOr));
      q.where = std::move(node);
    }
    if (IsKeyword("GROUP")) {
      PH_RETURN_IF_ERROR(Advance());
      PH_RETURN_IF_ERROR(ExpectKeyword("BY"));
      if (cur_.type != TokenType::kIdent) {
        return ErrorHere("expected GROUP BY column");
      }
      q.group_by = cur_.text;
      PH_RETURN_IF_ERROR(Advance());
    }
    if (IsSymbol(';')) {
      PH_RETURN_IF_ERROR(Advance());
    }
    if (cur_.type != TokenType::kEnd) {
      return ErrorHere("unexpected trailing input");
    }
    return q;
  }

 private:
  Status Advance() { return lexer_.Next(&cur_); }

  bool IsKeyword(std::string_view kw) const {
    return cur_.type == TokenType::kIdent && EqualsKeyword(cur_.text, kw);
  }

  bool IsSymbol(char sym) const {
    return cur_.type == TokenType::kSymbol && cur_.text.size() == 1 &&
           cur_.text[0] == sym;
  }

  Status ExpectKeyword(std::string_view kw) {
    if (!IsKeyword(kw)) {
      return ErrorHere("expected " + std::string(kw));
    }
    return Advance();
  }

  Status ExpectSymbol(char sym) {
    if (!IsSymbol(sym)) {
      return ErrorHere(std::string("expected '") + sym + "'");
    }
    return Advance();
  }

  Status ErrorHere(std::string_view what) const {
    return ErrorAt(what, cur_.pos);
  }

  StatusOr<AggFunc> ParseAggFunc() {
    if (cur_.type != TokenType::kIdent) {
      return ErrorHere("expected aggregation function");
    }
    const std::string_view name = cur_.text;  // views the input, not cur_
    PH_RETURN_IF_ERROR(Advance());
    if (EqualsKeyword(name, "COUNT")) return AggFunc::kCount;
    if (EqualsKeyword(name, "SUM")) return AggFunc::kSum;
    if (EqualsKeyword(name, "AVG") || EqualsKeyword(name, "MEAN")) {
      return AggFunc::kAvg;
    }
    if (EqualsKeyword(name, "MIN")) return AggFunc::kMin;
    if (EqualsKeyword(name, "MAX")) return AggFunc::kMax;
    if (EqualsKeyword(name, "MEDIAN")) return AggFunc::kMedian;
    if (EqualsKeyword(name, "VAR") || EqualsKeyword(name, "VARIANCE")) {
      return AggFunc::kVar;
    }
    std::string upper(name);
    for (char& ch : upper) ch = ToUpper(ch);
    return Status::InvalidArgument("SQL: unknown aggregation '" + upper + "'");
  }

  /// or_expr (type kOr) or and_expr (type kAnd): operands joined by the
  /// type's keyword. Operands are and_exprs under OR, primaries under AND.
  StatusOr<PredicateNode> ParseList(PredicateNode::Type type) {
    const bool is_or = type == PredicateNode::Type::kOr;
    const std::string_view joiner = is_or ? "OR" : "AND";
    PH_ASSIGN_OR_RETURN(PredicateNode first, ParseOperand(is_or));
    if (!IsKeyword(joiner)) return first;
    PredicateNode node;
    node.type = type;
    node.children.reserve(4);  // generated workloads join 1-5 predicates
    node.children.push_back(std::move(first));
    while (IsKeyword(joiner)) {
      PH_RETURN_IF_ERROR(Advance());
      PH_ASSIGN_OR_RETURN(PredicateNode next, ParseOperand(is_or));
      node.children.push_back(std::move(next));
    }
    return node;
  }

  StatusOr<PredicateNode> ParseOperand(bool of_or) {
    return of_or ? ParseList(PredicateNode::Type::kAnd) : ParsePrimary();
  }

  StatusOr<PredicateNode> ParsePrimary() {
    if (IsSymbol('(')) {
      if (depth_ == kMaxSqlNesting) return ErrorHere("nesting too deep");
      ++depth_;
      PH_RETURN_IF_ERROR(Advance());
      PH_ASSIGN_OR_RETURN(PredicateNode node,
                          ParseList(PredicateNode::Type::kOr));
      PH_RETURN_IF_ERROR(ExpectSymbol(')'));
      --depth_;
      return node;
    }
    if (cur_.type != TokenType::kIdent) {
      return ErrorHere("expected predicate column or '('");
    }
    PredicateNode node;
    node.type = PredicateNode::Type::kCondition;
    node.condition.column = cur_.text;
    PH_RETURN_IF_ERROR(Advance());

    if (cur_.type != TokenType::kSymbol) {
      return ErrorHere("expected comparison operator");
    }
    const std::string_view op = cur_.text;
    PH_RETURN_IF_ERROR(Advance());
    if (op == "<") node.condition.op = CmpOp::kLt;
    else if (op == "<=") node.condition.op = CmpOp::kLe;
    else if (op == ">") node.condition.op = CmpOp::kGt;
    else if (op == ">=") node.condition.op = CmpOp::kGe;
    else if (op == "=" || op == "==") node.condition.op = CmpOp::kEq;
    else if (op == "!=" || op == "<>") node.condition.op = CmpOp::kNe;
    else return ErrorHere("unknown operator '" + std::string(op) + "'");

    if (cur_.type == TokenType::kNumber) {
      node.condition.value = cur_.number;
    } else if (cur_.type == TokenType::kString) {
      node.condition.is_string = true;
      node.condition.text_value = StringValue(cur_);
    } else {
      return ErrorHere("expected literal");
    }
    PH_RETURN_IF_ERROR(Advance());
    return node;
  }

  Lexer lexer_;
  Token cur_;
  int depth_ = 0;  // open parentheses
};

}  // namespace

StatusOr<Query> ParseSql(std::string_view sql) {
  Parser parser(sql);
  return parser.Parse();
}

}  // namespace pairwisehist
