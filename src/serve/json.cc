#include "serve/json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <system_error>

namespace pairwisehist {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Recursive-descent parser over [p, end). Depth-capped so a hostile body
/// cannot overflow the stack. Every entry point validates the whole
/// document with the same grammar; a null output parses and discards, so
/// scanning a body for one member builds no tree.
class Parser {
 public:
  Parser(const char* p, const char* end) : p_(p), end_(end) {}

  Status Parse(JsonValue* v) {
    PH_RETURN_IF_ERROR(ParseValue(0, v));
    return ExpectEnd();
  }

  /// The first top-level member named `key`, when it is a string, into
  /// *out: ParseJson + Find(key) + the kString check, without the tree.
  Status ParseStringMember(std::string_view key, std::string* out) {
    want_key_ = key;
    want_out_ = out;
    PH_RETURN_IF_ERROR(ParseValue(0, nullptr));
    PH_RETURN_IF_ERROR(ExpectEnd());
    if (want_ != Want::kString) {
      return Status::NotFound("JSON: no string member \"" +
                              std::string(key) + "\"");
    }
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 64;
  /// What the first top-level member named want_key_ turned out to be.
  enum class Want { kMissing, kString, kOther };

  Status Err(const std::string& msg) const {
    return Status::InvalidArgument("JSON: " + msg + " at offset " +
                                   std::to_string(off_));
  }

  Status ExpectEnd() {
    SkipWs();
    if (p_ != end_) return Err("trailing characters after JSON value");
    return Status::OK();
  }

  void SkipWs() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      Advance();
    }
  }
  void Advance() {
    ++p_;
    ++off_;
  }
  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeWord(const char* w) {
    const char* q = p_;
    size_t n = 0;
    while (w[n] != '\0') {
      if (q == end_ || *q != w[n]) return false;
      ++q;
      ++n;
    }
    p_ = q;
    off_ += n;
    return true;
  }
  /// Consumes [0-9]*; true when at least one digit was consumed.
  bool ConsumeDigits() {
    const char* start = p_;
    while (p_ != end_ && IsDigit(*p_)) Advance();
    return p_ != start;
  }

  /// Parses one value into *v, or validates and discards it when v is
  /// null.
  Status ParseValue(int depth, JsonValue* v) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipWs();
    if (p_ == end_) return Err("unexpected end of input");
    switch (*p_) {
      case '{': {
        Advance();
        if (v != nullptr) v->type = JsonValue::Type::kObject;
        SkipWs();
        if (Consume('}')) return Status::OK();
        while (true) {
          SkipWs();
          std::string* key = &key_;
          if (v != nullptr) key = &v->fields.emplace_back().first;
          PH_RETURN_IF_ERROR(ParseString(key));
          SkipWs();
          if (!Consume(':')) return Err("expected ':'");
          if (v != nullptr) {
            PH_RETURN_IF_ERROR(ParseValue(depth + 1, &v->fields.back().second));
          } else {
            PH_RETURN_IF_ERROR(ParseMember(depth, *key));
          }
          SkipWs();
          if (Consume(',')) continue;
          if (Consume('}')) return Status::OK();
          return Err("expected ',' or '}'");
        }
      }
      case '[': {
        Advance();
        if (v != nullptr) v->type = JsonValue::Type::kArray;
        SkipWs();
        if (Consume(']')) return Status::OK();
        while (true) {
          PH_RETURN_IF_ERROR(ParseValue(
              depth + 1, v != nullptr ? &v->items.emplace_back() : nullptr));
          SkipWs();
          if (Consume(',')) continue;
          if (Consume(']')) return Status::OK();
          return Err("expected ',' or ']'");
        }
      }
      case '"':
        if (v != nullptr) v->type = JsonValue::Type::kString;
        return ParseString(v != nullptr ? &v->str : nullptr);
      case 't':
        if (!ConsumeWord("true")) return Err("bad literal");
        if (v != nullptr) {
          v->type = JsonValue::Type::kBool;
          v->boolean = true;
        }
        return Status::OK();
      case 'f':
        if (!ConsumeWord("false")) return Err("bad literal");
        if (v != nullptr) {
          v->type = JsonValue::Type::kBool;
          v->boolean = false;
        }
        return Status::OK();
      case 'n':
        if (!ConsumeWord("null")) return Err("bad literal");
        return Status::OK();
      default:
        if (v != nullptr) v->type = JsonValue::Type::kNumber;
        return ParseNumber(v != nullptr ? &v->number : nullptr);
    }
  }

  /// A discarded object's member value: the wanted top-level member (the
  /// first one named want_key_, as Find picks) is decoded into want_out_
  /// when it is a string; everything else is validated and dropped.
  Status ParseMember(int depth, const std::string& key) {
    if (depth != 0 || want_out_ == nullptr || want_ != Want::kMissing ||
        key != want_key_) {
      return ParseValue(depth + 1, nullptr);
    }
    SkipWs();
    if (p_ != end_ && *p_ == '"') {
      want_ = Want::kString;
      return ParseString(want_out_);
    }
    want_ = Want::kOther;
    return ParseValue(depth + 1, nullptr);
  }

  /// Parses a string literal, decoding it into *out (cleared first), or
  /// validating only when out is null.
  Status ParseString(std::string* out) {
    if (!Consume('"')) return Err("expected string");
    if (out != nullptr) out->clear();
    while (true) {
      const char* run = p_;
      while (p_ != end_ && *p_ != '"' && *p_ != '\\') Advance();
      if (out != nullptr) out->append(run, static_cast<size_t>(p_ - run));
      if (p_ == end_) return Err("unterminated string");
      const char c = *p_;
      Advance();
      if (c == '"') return Status::OK();
      if (p_ == end_) return Err("unterminated escape");
      const char e = *p_;
      Advance();
      char decoded = 0;
      switch (e) {
        case '"': decoded = '"'; break;
        case '\\': decoded = '\\'; break;
        case '/': decoded = '/'; break;
        case 'b': decoded = '\b'; break;
        case 'f': decoded = '\f'; break;
        case 'n': decoded = '\n'; break;
        case 'r': decoded = '\r'; break;
        case 't': decoded = '\t'; break;
        case 'u': {
          // \uXXXX: decode the code point and emit UTF-8. Surrogate pairs
          // are accepted; lone surrogates become U+FFFD.
          PH_ASSIGN_OR_RETURN(unsigned cp, ParseHex4());
          if (cp >= 0xD800 && cp <= 0xDBFF && p_ + 1 < end_ &&
              p_[0] == '\\' && p_[1] == 'u') {
            Advance();
            Advance();
            PH_ASSIGN_OR_RETURN(unsigned lo, ParseHex4());
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              cp = 0xFFFD;
            }
          } else if (cp >= 0xD800 && cp <= 0xDFFF) {
            cp = 0xFFFD;
          }
          if (out != nullptr) AppendUtf8(out, cp);
          continue;
        }
        default:
          return Err("bad escape");
      }
      if (out != nullptr) out->push_back(decoded);
    }
  }

  StatusOr<unsigned> ParseHex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (p_ == end_) return Err("unterminated \\u escape");
      const char c = *p_;
      Advance();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Err("bad hex digit");
      }
    }
    return v;
  }

  static void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  /// A number per the JSON grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?
  /// ([eE][+-]?[0-9]+)?, read with std::from_chars (locale-free, correctly
  /// rounded). A magnitude beyond DBL_MAX is rejected; one below the
  /// smallest subnormal reads as a signed zero.
  Status ParseNumber(double* out) {
    const char* start = p_;
    Consume('-');
    if (p_ == end_ || !IsDigit(*p_)) {
      return Err(p_ == start ? "unexpected character" : "bad number");
    }
    if (!Consume('0')) ConsumeDigits();
    if (Consume('.') && !ConsumeDigits()) return Err("bad number");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!ConsumeDigits()) return Err("bad number");
    }
    // A number glued to more number characters ("01", "1.2.3", "1e5e").
    if (p_ != end_ && (IsDigit(*p_) || *p_ == '.' || *p_ == 'e' ||
                       *p_ == 'E' || *p_ == '+' || *p_ == '-')) {
      return Err("bad number");
    }
    double d = 0;
    const std::from_chars_result r = std::from_chars(start, p_, d);
    if (r.ec == std::errc::result_out_of_range) {
      if (!Underflows(start, p_)) return Err("number out of range");
      d = *start == '-' ? -0.0 : 0.0;
    } else if (r.ec != std::errc() || r.ptr != p_) {
      return Err("bad number");
    }
    if (out != nullptr) *out = d;
    return Status::OK();
  }

  /// For a grammar-valid nonzero number that from_chars found out of
  /// range: true when it is too small (its leading significant digit sits
  /// below the units place), false when it is too large.
  static bool Underflows(const char* p, const char* end) {
    if (*p == '-') ++p;
    // Decimal exponent of the leading nonzero digit, before the exponent
    // part: int_digits - 1 for a nonzero integer part, otherwise minus the
    // position of the first nonzero fraction digit.
    int64_t lead = 0;
    const char* q = p;
    while (q != end && IsDigit(*q)) ++q;
    if (*p != '0') {
      lead = (q - p) - 1;
    } else if (q != end && *q == '.') {
      ++q;
      lead = -1;
      while (q != end && *q == '0') {
        --lead;
        ++q;
      }
    }
    while (q != end && *q != 'e' && *q != 'E') ++q;
    int64_t exp = 0;
    bool neg = false;
    if (q != end) {
      ++q;
      if (*q == '+' || *q == '-') neg = *q++ == '-';
      for (; q != end && exp < (int64_t{1} << 40); ++q) {
        exp = exp * 10 + (*q - '0');
      }
    }
    return lead + (neg ? -exp : exp) < 0;
  }

  const char* p_;
  const char* end_;
  size_t off_ = 0;
  std::string key_;  ///< decoded key of a discarded object member
  std::string_view want_key_;
  std::string* want_out_ = nullptr;
  Want want_ = Want::kMissing;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& f : fields) {
    if (f.first == key) return &f.second;
  }
  return nullptr;
}

StatusOr<JsonValue> ParseJson(const std::string& text) {
  Parser p(text.data(), text.data() + text.size());
  JsonValue v;
  PH_RETURN_IF_ERROR(p.Parse(&v));
  return v;
}

Status ParseJsonStringMember(std::string_view text, std::string_view key,
                             std::string* out) {
  Parser p(text.data(), text.data() + text.size());
  return p.ParseStringMember(key, out);
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[32];  // the shortest round-trip form needs at most 24
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

void AppendQueryResult(std::string* out, const QueryResult& result) {
  *out += "{\"groups\":[";
  for (size_t i = 0; i < result.groups.size(); ++i) {
    if (i != 0) out->push_back(',');
    const QueryResult::Group& g = result.groups[i];
    *out += "{\"label\":";
    AppendJsonString(out, g.label);
    *out += ",\"estimate\":";
    AppendJsonNumber(out, g.agg.estimate);
    *out += ",\"lower\":";
    AppendJsonNumber(out, g.agg.lower);
    *out += ",\"upper\":";
    AppendJsonNumber(out, g.agg.upper);
    *out += ",\"empty\":";
    *out += g.agg.empty_selection ? "true" : "false";
    *out += "}";
  }
  *out += "]}";
}

}  // namespace pairwisehist
