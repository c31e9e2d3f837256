// Recursive-descent parser for the supported SQL subset (Fig. 2's "SQL
// Parser" stage). Returns positioned error messages on malformed input.
//
// Grammar (case-insensitive keywords):
//   query     := SELECT func '(' (ident | '*') ')' FROM ident
//                [WHERE or_expr] [GROUP BY ident] [';']
//   func      := COUNT | SUM | AVG | MIN | MAX | MEDIAN | VAR | VARIANCE
//   or_expr   := and_expr (OR and_expr)*
//   and_expr  := primary (AND primary)*        // AND binds tighter than OR
//   primary   := '(' or_expr ')' | ident op literal
//   op        := '<' | '<=' | '>' | '>=' | '=' | '==' | '!=' | '<>'
//   literal   := number | string
//   ident     := [A-Za-z_] [A-Za-z0-9_.]*
//   number    := [+-]? (digits ['.' [digits]] | '.' digits)
//                [(e | E) [+-]? digits]
//   string    := '...' | "..."    // the quote doubled inside: 'O''Hare'
//
// Numeric literals are decimal only (+5, .5e1, -12.5, 7.) and read to the
// double strtod gives, correctly rounded; a magnitude below the smallest
// subnormal reads as a signed zero. An exponent marker without digits ends
// the number, as in strtod ("1e" is the number 1, then the identifier e).
// NaN and infinity spellings after a sign ("-nan", "+inf"), hexadecimal
// ("0x10") and magnitudes beyond DBL_MAX ("1e400") are InvalidArgument at
// the literal's offset.
//
// Parentheses nest at most kMaxSqlNesting deep; the next '(' is
// InvalidArgument("SQL: nesting too deep at offset N"), so no statement
// can exhaust the stack.
//
// The lexer works on views of the input: tokens copy nothing, and only the
// identifiers and string literals the Query keeps are copied into it.
#ifndef PAIRWISEHIST_QUERY_SQL_PARSER_H_
#define PAIRWISEHIST_QUERY_SQL_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "query/ast.h"

namespace pairwisehist {

/// Deepest parenthesis nesting ParseSql accepts.
inline constexpr int kMaxSqlNesting = 64;

/// Parses one SQL statement into a Query.
StatusOr<Query> ParseSql(std::string_view sql);

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_QUERY_SQL_PARSER_H_
