// Minimal JSON support for the serving layer: a small parser for request
// bodies and append-style writers for responses.
//
// Deliberately tiny (no external deps, same spirit as the embedded HTTP
// server): the serving API only needs objects, arrays, strings, numbers,
// booleans and null. One recursive-descent grammar serves both entry
// points: ParseJson builds a tree, ParseJsonStringMember scans a body for
// one string member without building one (the /query hot path). Numbers
// are written in the shortest form that round-trips (std::to_chars) and
// read with std::from_chars, so doubles survive a write/read bit-exactly
// and neither direction depends on the locale — the serve tests compare
// HTTP responses for bit-equality with single-threaded execution, so
// formatting must be deterministic. NaN / Inf (legal AggResult values for
// empty selections) serialize as null, which JSON requires.
#ifndef PAIRWISEHIST_SERVE_JSON_H_
#define PAIRWISEHIST_SERVE_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/ast.h"

namespace pairwisehist {

/// A parsed JSON value (tagged union, object keys in document order).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;  ///< when type == kArray
  std::vector<std::pair<std::string, JsonValue>> fields;  ///< kObject

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
StatusOr<JsonValue> ParseJson(const std::string& text);

/// The first top-level member named `key` of the JSON object in `text`,
/// decoded into *out (its capacity is reused), without building a tree.
/// Returns exactly what ParseJson(text) + Find(key) + a kString check
/// would decide: ParseJson's own InvalidArgument (same message and offset)
/// when `text` is not one well-formed document — a syntax error anywhere
/// outranks everything else — and NotFound when the document is not an
/// object or that member is missing or not a string.
Status ParseJsonStringMember(std::string_view text, std::string_view key,
                             std::string* out);

/// Appends `s` as a quoted, escaped JSON string.
void AppendJsonString(std::string* out, const std::string& s);

/// Appends a double in the shortest form that parses back to the same bits
/// (std::to_chars), or null for NaN / Inf.
void AppendJsonNumber(std::string* out, double v);

/// Appends a QueryResult as {"groups":[{"label":...,"estimate":...,
/// "lower":...,"upper":...,"empty":...}]}.
void AppendQueryResult(std::string* out, const QueryResult& result);

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_SERVE_JSON_H_
