#pragma once

/// \file json.hpp
/// Minimal JSON support for the machine-readable outputs: emission helpers
/// (used by the trace exporters and the bench `-json` records) and a small
/// strict RFC 8259 parser, either building a JsonValue tree (parse_json) or
/// pulling one object's members without a tree (JsonObjectReader, used by
/// the analysis layer to read JSONL traces back).

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dsouth::util {

/// RFC 8259 string escaping: backslash, double quote, and control
/// characters (\b \f \n \r \t, \u00XX for the rest). Input is passed
/// through byte-wise, so valid UTF-8 stays valid UTF-8.
std::string json_escape(std::string_view s);

/// json_escape appended to `out` (no temporary string).
void append_json_escaped(std::string& out, std::string_view s);

/// Append `v` to `out` as a JSON number token that round-trips the double
/// exactly (the shortest of %.15g/%.16g/%.17g that parses back bit-equal;
/// integral |v| < 1e15 take a direct integer path that prints the same).
/// Non-finite values — which JSON cannot represent — are emitted as `null`
/// (and parse back as JsonValue null; callers that need NaN/Inf must carry
/// them out of band).
void append_json_number(std::string& out, double v);

/// Convenience wrapper around append_json_number.
std::string json_number(double v);

/// `"escaped"` — json_escape plus the surrounding quotes.
std::string json_quote(std::string_view s);

/// A parsed JSON document node. Objects preserve insertion order (the
/// analyzer's reports are rendered in schema order and compared
/// byte-for-byte across backends).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw CheckError on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  /// as_number, checked to be integral and in int64 range.
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  /// Object entries in document order.
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  /// Object member lookup: nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Member lookup that throws CheckError when the key is absent.
  const JsonValue& at(std::string_view key) const;

  /// Factories (used by tests building expected documents).
  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

  /// Serialize back to compact JSON (object order preserved, numbers via
  /// append_json_number — so parse(dump(v)) round-trips).
  std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

/// Strict parse of one JSON document (throws CheckError on syntax errors or
/// trailing garbage). `\uXXXX` escapes decode to UTF-8, including surrogate
/// pairs; duplicate object keys keep the last value (RFC 8259 §4 behavior).
JsonValue parse_json(std::string_view text);

/// Parse the first JSON document on `text` starting at `pos`; advances
/// `pos` past it (whitespace included).
JsonValue parse_json_prefix(std::string_view text, std::size_t& pos);

/// One member value read by JsonObjectReader. Literals, numbers and strings
/// are decoded without building a JsonValue — a string with no escapes
/// views the reader's input text, so it is valid while that text is —
/// and arrays and objects are parsed into a JsonValue tree. Accessors throw
/// CheckError on a kind mismatch, like JsonValue's. A true/false value
/// reports only its kind.
class JsonField {
 public:
  JsonValue::Kind kind() const { return kind_; }

  double as_number() const;
  /// as_number, checked to be integral and in int64 range.
  std::int64_t as_int() const;
  std::string_view as_string() const;
  const std::vector<JsonValue>& as_array() const;

 private:
  friend class JsonObjectReader;

  JsonValue::Kind kind_ = JsonValue::Kind::kNull;
  double num_ = 0.0;
  bool escaped_ = false;   // string value lives in decoded_, not view_
  std::string_view view_;  // unescaped string value (views the input)
  std::string decoded_;
  JsonValue tree_;  // kArray / kObject
};

/// Pull reader over a text that must hold exactly one JSON object
/// (whitespace around it allowed), with the same strict grammar as
/// parse_json but no tree for the object itself:
///
///     JsonObjectReader r(text);
///     std::string_view key;
///     while (r.next(key)) r.value(field);
///
/// Every next() that returns true must be followed by one value() call.
/// The key views the input text or the reader's own buffer and is valid
/// until the next call to next(). Members come in document order,
/// duplicates included; the final next() (returning false) also checks
/// that nothing but whitespace follows the object.
class JsonObjectReader {
 public:
  explicit JsonObjectReader(std::string_view text);

  bool next(std::string_view& key);
  void value(JsonField& out);

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  bool first_ = true;
  std::string key_buf_;
};

}  // namespace dsouth::util
