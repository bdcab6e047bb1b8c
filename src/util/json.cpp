#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "util/error.hpp"

namespace dsouth::util {

namespace {

/// strtod's value for the number token [first, last). std::from_chars gives
/// the same correctly rounded result without a NUL-terminated copy; where it
/// reports out of range (overflow, and underflow to zero or a subnormal)
/// strtod itself decides, so those keep exactly strtod's ±inf / 0 /
/// subnormal results.
double parse_double(const char* first, const char* last) {
  double v = 0.0;
  const auto r = std::from_chars(first, last, v);
  if (r.ec == std::errc::result_out_of_range) {
    const std::string token(first, last);
    return std::strtod(token.c_str(), nullptr);
  }
  DSOUTH_ASSERT(r.ec == std::errc{} && r.ptr == last);
  return v;
}

/// JsonValue::as_int / JsonField::as_int: `v` checked to be integral and in
/// int64 range (range first — converting an out-of-range double is UB).
std::int64_t checked_int(double v) {
  const bool in_range = v >= -0x1p63 && v < 0x1p63;
  const auto i = in_range ? static_cast<std::int64_t>(v) : std::int64_t{0};
  DSOUTH_CHECK_MSG(in_range && static_cast<double>(i) == v,
                   "JSON number " << v << " is not an integer");
  return i;
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view s) {
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  // An integral |v| < 1e15 has at most 15 digits, so %.15g prints it
  // exactly, as plain digits: what to_chars of the integer prints. -0.0
  // stays on the %g path, which keeps its sign ("-0").
  if (std::fabs(v) < 1e15) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v))) {
      out.append(buf, std::to_chars(buf, buf + sizeof(buf), i).ptr);
      return;
    }
  }
  // Shortest %g form that round-trips the double exactly; 17 significant
  // digits always do. to_chars with a precision prints what printf("%.*g")
  // does.
  char* end = buf;
  for (int prec = 15; prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                        prec)
              .ptr;
    if (parse_double(buf, end) == v) break;
  }
  out.append(buf, end);
}

std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_json_escaped(out, s);
  out += '"';
  return out;
}

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

bool JsonValue::as_bool() const {
  DSOUTH_CHECK_MSG(is_bool(), "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  DSOUTH_CHECK_MSG(is_number(), "JSON value is not a number");
  return num_;
}

std::int64_t JsonValue::as_int() const { return checked_int(as_number()); }

const std::string& JsonValue::as_string() const {
  DSOUTH_CHECK_MSG(is_string(), "JSON value is not a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  DSOUTH_CHECK_MSG(is_array(), "JSON value is not an array");
  return arr_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_object()
    const {
  DSOUTH_CHECK_MSG(is_object(), "JSON value is not an object");
  return obj_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  // Last occurrence wins (duplicate keys keep the last value, RFC 8259 §4).
  const JsonValue* hit = nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) hit = &v;
  }
  return hit;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  DSOUTH_CHECK_MSG(v != nullptr, "JSON object has no member '" << key << "'");
  return *v;
}

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  if (!std::isfinite(d)) return v;  // emitted as null, so parsed as null
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.arr_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.obj_ = std::move(members);
  return v;
}

std::string JsonValue::dump() const {
  std::string out;
  switch (kind_) {
    case Kind::kNull:
      out = "null";
      break;
    case Kind::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      append_json_number(out, num_);
      break;
    case Kind::kString:
      out = json_quote(str_);
      break;
    case Kind::kArray:
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        out += arr_[i].dump();
      }
      out += ']';
      break;
    case Kind::kObject:
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        out += json_quote(obj_[i].first);
        out += ':';
        out += obj_[i].second.dump();
      }
      out += '}';
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::size_t pos) : text_(text), pos_(pos) {}

  std::size_t pos() const { return pos_; }

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    return v;
  }

  /// First byte of the next value (which must exist).
  char peek() const {
    DSOUTH_CHECK_MSG(pos_ < text_.size(), "JSON: unexpected end of input");
    return text_[pos_];
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        std::string buf;
        return JsonValue::make_string(std::string(parse_string(buf)));
      }
      case 't':
        expect_literal("true");
        return JsonValue::make_bool(true);
      case 'f':
        expect_literal("false");
        return JsonValue::make_bool(false);
      case 'n':
        expect_literal("null");
        return JsonValue::make_null();
      default:
        return JsonValue::make_number(parse_number());
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    DSOUTH_CHECK_MSG(pos_ < text_.size() && text_[pos_] == c,
                     "JSON: expected '" << c << "' at offset " << pos_);
    ++pos_;
  }

  void expect_literal(std::string_view lit) {
    DSOUTH_CHECK_MSG(text_.substr(pos_, lit.size()) == lit,
                     "JSON: bad literal at offset " << pos_);
    pos_ += lit.size();
  }

  /// The object grammar's one step, after the opening '{' (`first`) or
  /// after a member's value: reads either the closing '}' (returns false)
  /// or the next member's key and its ':' (returns true, positioned at the
  /// value). Key storage as for parse_string.
  bool next_member(bool& first, std::string_view& key, std::string& buf) {
    skip_ws();
    if (first) {
      first = false;
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return false;
      }
    } else {
      DSOUTH_CHECK_MSG(pos_ < text_.size(), "JSON: unterminated object");
      if (text_[pos_] != ',') {
        expect('}');
        return false;
      }
      ++pos_;
      skip_ws();
    }
    key = parse_string(buf);
    skip_ws();
    expect(':');
    skip_ws();
    return true;
  }

  /// A string token's contents: a view of the input when the string holds
  /// no escapes, else decoded into `buf` and a view of `buf`.
  std::string_view parse_string(std::string& buf) {
    expect('"');
    const std::size_t start = pos_;
    while (true) {
      DSOUTH_CHECK_MSG(pos_ < text_.size(), "JSON: unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '\\') break;
      ++pos_;
      if (c == '"') return text_.substr(start, pos_ - 1 - start);
      DSOUTH_CHECK_MSG(c >= 0x20, "JSON: raw control character in string");
    }
    buf.assign(text_.data() + start, pos_ - start);
    decode_escaped(buf);
    return buf;
  }

  /// Validates a number token (RFC 8259 grammar) and returns its value,
  /// ±inf when it overflows a double.
  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    const std::size_t int_start = pos_;
    DSOUTH_CHECK_MSG(digits() > 0,
                     "JSON: malformed number at offset " << start);
    // RFC 8259: the integer part is "0" or starts with a nonzero digit.
    DSOUTH_CHECK_MSG(text_[int_start] != '0' || pos_ - int_start == 1,
                     "JSON: leading zero in number at offset " << start);
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      DSOUTH_CHECK_MSG(digits() > 0, "JSON: digits required after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      DSOUTH_CHECK_MSG(digits() > 0, "JSON: digits required in exponent");
    }
    return parse_double(text_.data() + start, text_.data() + pos_);
  }

 private:
  JsonValue parse_object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    bool first = true;
    std::string_view key;
    std::string buf;
    while (next_member(first, key, buf)) {
      std::string name(key);
      members.emplace_back(std::move(name), parse_value());
    }
    return JsonValue::make_object(std::move(members));
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      skip_ws();
      items.push_back(parse_value());
      skip_ws();
      DSOUTH_CHECK_MSG(pos_ < text_.size(), "JSON: unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(std::move(items));
    }
  }

  /// Append a Unicode code point as UTF-8.
  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::uint32_t parse_hex4() {
    DSOUTH_CHECK_MSG(pos_ + 4 <= text_.size(), "JSON: truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        DSOUTH_CHECK_MSG(false, "JSON: bad \\u escape digit '" << c << "'");
      }
    }
    return v;
  }

  /// The rest of a string token from its first backslash, appended to
  /// `out` decoded, through the closing quote.
  void decode_escaped(std::string& out) {
    while (true) {
      DSOUTH_CHECK_MSG(pos_ < text_.size(), "JSON: unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return;
      if (c != '\\') {
        DSOUTH_CHECK_MSG(c >= 0x20,
                         "JSON: raw control character in string");
        out += static_cast<char>(c);
        continue;
      }
      DSOUTH_CHECK_MSG(pos_ < text_.size(), "JSON: dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            DSOUTH_CHECK_MSG(pos_ + 1 < text_.size() &&
                                 text_[pos_] == '\\' && text_[pos_ + 1] == 'u',
                             "JSON: unpaired high surrogate");
            pos_ += 2;
            const std::uint32_t lo = parse_hex4();
            DSOUTH_CHECK_MSG(lo >= 0xDC00 && lo <= 0xDFFF,
                             "JSON: invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else {
            DSOUTH_CHECK_MSG(!(cp >= 0xDC00 && cp <= 0xDFFF),
                             "JSON: unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          DSOUTH_CHECK_MSG(false, "JSON: bad escape '\\" << e << "'");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  Parser p(text, 0);
  JsonValue v = p.parse_document();
  DSOUTH_CHECK_MSG(p.pos() == text.size(),
                   "JSON: trailing garbage at offset " << p.pos());
  return v;
}

JsonValue parse_json_prefix(std::string_view text, std::size_t& pos) {
  Parser p(text, pos);
  JsonValue v = p.parse_document();
  pos = p.pos();
  return v;
}

// ---------------------------------------------------------------------------
// JsonField / JsonObjectReader
// ---------------------------------------------------------------------------

double JsonField::as_number() const {
  DSOUTH_CHECK_MSG(kind_ == JsonValue::Kind::kNumber,
                   "JSON value is not a number");
  return num_;
}

std::int64_t JsonField::as_int() const { return checked_int(as_number()); }

std::string_view JsonField::as_string() const {
  DSOUTH_CHECK_MSG(kind_ == JsonValue::Kind::kString,
                   "JSON value is not a string");
  return escaped_ ? std::string_view(decoded_) : view_;
}

const std::vector<JsonValue>& JsonField::as_array() const {
  DSOUTH_CHECK_MSG(kind_ == JsonValue::Kind::kArray,
                   "JSON value is not an array");
  return tree_.as_array();
}

JsonObjectReader::JsonObjectReader(std::string_view text) : text_(text) {
  Parser p(text_, 0);
  p.skip_ws();
  p.expect('{');
  pos_ = p.pos();
}

bool JsonObjectReader::next(std::string_view& key) {
  Parser p(text_, pos_);
  const bool more = p.next_member(first_, key, key_buf_);
  if (!more) {
    p.skip_ws();
    DSOUTH_CHECK_MSG(p.pos() == text_.size(),
                     "JSON: trailing garbage at offset " << p.pos());
  }
  pos_ = p.pos();
  return more;
}

void JsonObjectReader::value(JsonField& out) {
  using Kind = JsonValue::Kind;
  Parser p(text_, pos_);
  switch (p.peek()) {
    case '{':
    case '[':
      out.tree_ = p.parse_value();
      out.kind_ = out.tree_.kind();
      break;
    case '"': {
      const std::string_view s = p.parse_string(out.decoded_);
      out.kind_ = Kind::kString;
      // parse_string views either the input or the buffer it decoded into.
      out.escaped_ = s.data() == out.decoded_.data();
      out.view_ = s;
      break;
    }
    case 't':
      p.expect_literal("true");
      out.kind_ = Kind::kBool;
      break;
    case 'f':
      p.expect_literal("false");
      out.kind_ = Kind::kBool;
      break;
    case 'n':
      p.expect_literal("null");
      out.kind_ = Kind::kNull;
      break;
    default:
      // Like JsonValue::make_number: a value that overflows reads as null.
      out.num_ = p.parse_number();
      out.kind_ = std::isfinite(out.num_) ? Kind::kNumber : Kind::kNull;
  }
  pos_ = p.pos();
}

}  // namespace dsouth::util
