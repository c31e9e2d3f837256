#include "tests/oracle/reference_parser.h"

#include <cctype>
#include <cstdlib>

namespace pairwisehist {
namespace oracle {

namespace {

enum class TokenType {
  kIdent,
  kNumber,
  kString,
  kSymbol,  // operators and punctuation
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;   // identifier (upper-cased copy in `upper`), literal
  std::string upper;  // upper-cased text for keyword matching
  double number = 0;
  size_t pos = 0;  // byte offset for error messages
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : in_(input) {}

  StatusOr<Token> Next() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
    Token t;
    t.pos = pos_;
    if (pos_ >= in_.size()) {
      t.type = TokenType::kEnd;
      return t;
    }
    char c = in_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < in_.size() &&
             (std::isalnum(static_cast<unsigned char>(in_[pos_])) ||
              in_[pos_] == '_' || in_[pos_] == '.')) {
        ++pos_;
      }
      t.type = TokenType::kIdent;
      t.text = in_.substr(start, pos_ - start);
      t.upper = t.text;
      for (char& ch : t.upper) ch = std::toupper(static_cast<unsigned char>(ch));
      return t;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+' ||
        c == '.') {
      // Could be a number or a lone sign; try strtod.
      char* end = nullptr;
      double v = std::strtod(in_.c_str() + pos_, &end);
      if (end != in_.c_str() + pos_) {
        t.type = TokenType::kNumber;
        t.number = v;
        t.text = in_.substr(pos_, end - (in_.c_str() + pos_));
        pos_ = end - in_.c_str();
        return t;
      }
    }
    if (c == '\'' || c == '"') {
      char quote = c;
      size_t start = ++pos_;
      std::string s;
      while (pos_ < in_.size()) {
        if (in_[pos_] == quote) {
          if (pos_ + 1 < in_.size() && in_[pos_ + 1] == quote) {
            s += quote;
            pos_ += 2;
            continue;
          }
          break;
        }
        s += in_[pos_++];
      }
      if (pos_ >= in_.size()) {
        return Status::InvalidArgument("SQL: unterminated string at offset " +
                                       std::to_string(start - 1));
      }
      ++pos_;  // closing quote
      t.type = TokenType::kString;
      t.text = std::move(s);
      return t;
    }
    // Multi-char operators first.
    static const char* kTwoChar[] = {"<=", ">=", "!=", "<>", "=="};
    for (const char* op : kTwoChar) {
      if (in_.compare(pos_, 2, op) == 0) {
        t.type = TokenType::kSymbol;
        t.text = op;
        pos_ += 2;
        return t;
      }
    }
    t.type = TokenType::kSymbol;
    t.text = std::string(1, c);
    ++pos_;
    return t;
  }

 private:
  const std::string& in_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(const std::string& sql) : lexer_(sql) {}

  StatusOr<Query> Parse() {
    PH_RETURN_IF_ERROR(Advance());
    PH_RETURN_IF_ERROR(ExpectKeyword("SELECT"));

    Query q;
    PH_ASSIGN_OR_RETURN(q.func, ParseAggFunc());
    PH_RETURN_IF_ERROR(ExpectSymbol("("));
    if (cur_.type == TokenType::kSymbol && cur_.text == "*") {
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
    PH_RETURN_IF_ERROR(ExpectSymbol(")"));
    PH_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    if (cur_.type != TokenType::kIdent) {
      return ErrorHere("expected table name");
    }
    q.table = cur_.text;
    PH_RETURN_IF_ERROR(Advance());

    if (IsKeyword("WHERE")) {
      PH_RETURN_IF_ERROR(Advance());
      PH_ASSIGN_OR_RETURN(PredicateNode node, ParseOr());
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
    if (cur_.type == TokenType::kSymbol && cur_.text == ";") {
      PH_RETURN_IF_ERROR(Advance());
    }
    if (cur_.type != TokenType::kEnd) {
      return ErrorHere("unexpected trailing input");
    }
    return q;
  }

 private:
  Status Advance() {
    PH_ASSIGN_OR_RETURN(cur_, lexer_.Next());
    return Status::OK();
  }

  bool IsKeyword(const std::string& kw) const {
    return cur_.type == TokenType::kIdent && cur_.upper == kw;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!IsKeyword(kw)) {
      return ErrorHere("expected " + kw);
    }
    return Advance();
  }

  Status ExpectSymbol(const std::string& sym) {
    if (cur_.type != TokenType::kSymbol || cur_.text != sym) {
      return ErrorHere("expected '" + sym + "'");
    }
    return Advance();
  }

  Status ErrorHere(const std::string& what) const {
    return Status::InvalidArgument("SQL: " + what + " at offset " +
                                   std::to_string(cur_.pos));
  }

  StatusOr<AggFunc> ParseAggFunc() {
    if (cur_.type != TokenType::kIdent) {
      return ErrorHere("expected aggregation function");
    }
    std::string name = cur_.upper;
    PH_RETURN_IF_ERROR(Advance());
    if (name == "COUNT") return AggFunc::kCount;
    if (name == "SUM") return AggFunc::kSum;
    if (name == "AVG" || name == "MEAN") return AggFunc::kAvg;
    if (name == "MIN") return AggFunc::kMin;
    if (name == "MAX") return AggFunc::kMax;
    if (name == "MEDIAN") return AggFunc::kMedian;
    if (name == "VAR" || name == "VARIANCE") return AggFunc::kVar;
    return Status::InvalidArgument("SQL: unknown aggregation '" + name + "'");
  }

  StatusOr<PredicateNode> ParseOr() {
    PH_ASSIGN_OR_RETURN(PredicateNode left, ParseAnd());
    if (!IsKeyword("OR")) return left;
    PredicateNode node;
    node.type = PredicateNode::Type::kOr;
    node.children.push_back(std::move(left));
    while (IsKeyword("OR")) {
      PH_RETURN_IF_ERROR(Advance());
      PH_ASSIGN_OR_RETURN(PredicateNode right, ParseAnd());
      node.children.push_back(std::move(right));
    }
    return node;
  }

  StatusOr<PredicateNode> ParseAnd() {
    PH_ASSIGN_OR_RETURN(PredicateNode left, ParsePrimary());
    if (!IsKeyword("AND")) return left;
    PredicateNode node;
    node.type = PredicateNode::Type::kAnd;
    node.children.push_back(std::move(left));
    while (IsKeyword("AND")) {
      PH_RETURN_IF_ERROR(Advance());
      PH_ASSIGN_OR_RETURN(PredicateNode right, ParsePrimary());
      node.children.push_back(std::move(right));
    }
    return node;
  }

  StatusOr<PredicateNode> ParsePrimary() {
    if (cur_.type == TokenType::kSymbol && cur_.text == "(") {
      PH_RETURN_IF_ERROR(Advance());
      PH_ASSIGN_OR_RETURN(PredicateNode node, ParseOr());
      PH_RETURN_IF_ERROR(ExpectSymbol(")"));
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
    std::string op = cur_.text;
    PH_RETURN_IF_ERROR(Advance());
    if (op == "<") node.condition.op = CmpOp::kLt;
    else if (op == "<=") node.condition.op = CmpOp::kLe;
    else if (op == ">") node.condition.op = CmpOp::kGt;
    else if (op == ">=") node.condition.op = CmpOp::kGe;
    else if (op == "=" || op == "==") node.condition.op = CmpOp::kEq;
    else if (op == "!=" || op == "<>") node.condition.op = CmpOp::kNe;
    else return ErrorHere("unknown operator '" + op + "'");

    if (cur_.type == TokenType::kNumber) {
      node.condition.value = cur_.number;
    } else if (cur_.type == TokenType::kString) {
      node.condition.is_string = true;
      node.condition.text_value = cur_.text;
    } else {
      return ErrorHere("expected literal");
    }
    PH_RETURN_IF_ERROR(Advance());
    return node;
  }

  Lexer lexer_;
  Token cur_;
};

}  // namespace

StatusOr<Query> ReferenceParseSql(const std::string& sql) {
  Parser parser(sql);
  return parser.Parse();
}

}  // namespace oracle
}  // namespace pairwisehist
