// Test-only reference SQL parser: the original recursive-descent parser
// over std::string tokens, kept as an oracle for the differential test
// (tests/sql_parser_diff_test.cc). It accepts the same statements as
// ParseSql (query/sql_parser.h), with the same Query or the same error,
// except where the library's parser deliberately differs:
//  * numeric literals go to strtod, so NaN, infinity, hexadecimal and
//    out-of-range forms parse here and are rejected there;
//  * parentheses nest without limit, until the recursion overflows the
//    stack (at a depth of 10,000 in a release build), where ParseSql
//    stops at kMaxSqlNesting.
#ifndef PAIRWISEHIST_TESTS_ORACLE_REFERENCE_PARSER_H_
#define PAIRWISEHIST_TESTS_ORACLE_REFERENCE_PARSER_H_

#include <string>

#include "common/status.h"
#include "query/ast.h"

namespace pairwisehist {
namespace oracle {

/// Parses one SQL statement into a Query the original way.
StatusOr<Query> ReferenceParseSql(const std::string& sql);

}  // namespace oracle
}  // namespace pairwisehist

#endif  // PAIRWISEHIST_TESTS_ORACLE_REFERENCE_PARSER_H_
