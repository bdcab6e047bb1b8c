/// Tests for util/json: escaping edge cases (control characters, UTF-8
/// pass-through), number emission (exact double round-trips, non-finite →
/// null as documented, byte-equality with the printf %g ladder), number
/// parsing (bit-equality with strtod), the strict parser (escapes,
/// surrogate pairs, malformed inputs, duplicate keys, parse(dump(v))
/// round-trips) and the tree-free JsonObjectReader.

#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace dsouth::util {
namespace {

// ---------------------------------------------------------------------------
// json_escape
// ---------------------------------------------------------------------------

TEST(JsonEscape, PlainAsciiUntouched) {
  EXPECT_EQ(json_escape("hello world_42"), "hello world_42");
}

TEST(JsonEscape, QuotesAndBackslash) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, NamedControlCharacters) {
  EXPECT_EQ(json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
}

TEST(JsonEscape, UnnamedControlCharactersUseUnicodeEscapes) {
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_escape(std::string("\x1f", 1)), "\\u001f");
  // NUL must not truncate the string.
  EXPECT_EQ(json_escape(std::string("a\0b", 3)), "a\\u0000b");
}

TEST(JsonEscape, Utf8PassesThroughByteWise) {
  const std::string snowman = "\xe2\x98\x83";           // U+2603
  const std::string emoji = "\xf0\x9f\x98\x80";         // U+1F600
  EXPECT_EQ(json_escape(snowman), snowman);
  EXPECT_EQ(json_escape("x" + emoji + "y"), "x" + emoji + "y");
}

TEST(JsonQuote, WrapsAndEscapes) {
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote(""), "\"\"");
}

// ---------------------------------------------------------------------------
// Number emission
// ---------------------------------------------------------------------------

TEST(JsonNumber, IntegersPrintCompactly) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
}

TEST(JsonNumber, NonFiniteEmitsNullAsDocumented) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumber, ExactDoubleRoundTrip) {
  // Values with no short decimal form must still round-trip bit-exactly.
  const double cases[] = {0.1,
                          1.0 / 3.0,
                          1e-300,
                          1e300,
                          5e-324,  // min subnormal
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::min(),
                          -2.5e-6,
                          3.141592653589793};
  for (double v : cases) {
    const std::string s = json_number(v);
    const JsonValue parsed = parse_json(s);
    ASSERT_TRUE(parsed.is_number()) << s;
    EXPECT_EQ(parsed.as_number(), v) << s;
  }
}

TEST(JsonNumber, RandomDoubleRoundTrip) {
  std::mt19937_64 rng(20260805);
  for (int i = 0; i < 2000; ++i) {
    double v;
    do {
      const std::uint64_t bits = rng();
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&v, &bits, sizeof(v));
    } while (!std::isfinite(v));
    const JsonValue parsed = parse_json(json_number(v));
    ASSERT_TRUE(parsed.is_number());
    // Compare bit patterns so -0.0 vs 0.0 is caught too.
    const double back = parsed.as_number();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0)
        << v << " -> " << json_number(v) << " -> " << back;
  }
}

/// The number formatter as it was before the charconv rewrite, kept here as
/// the reference: the shortest of %.15g/%.16g/%.17g that strtod reads back
/// bit-equal.
std::string printf_ladder_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(v));
  return b;
}

/// Counts the values append_json_number prints differently from the
/// printf ladder; reports the first few.
class LadderCheck {
 public:
  void operator()(double v) {
    ++checked_;
    got_.clear();
    append_json_number(got_, v);
    const std::string want = printf_ladder_number(v);
    if (got_ == want) return;
    if (++mismatches_ <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << bits_of(v) << std::dec
                    << ": got " << got_ << ", printf ladder " << want;
    }
  }
  std::size_t checked() const { return checked_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  std::string got_;
  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
};

TEST(JsonNumber, MatchesPrintfLadderOnEdgeValues) {
  const double cases[] = {0.0,
                          -0.0,
                          1e15 - 1,
                          -(1e15 - 1),
                          1e15,
                          -1e15,
                          1e15 + 1,
                          1e16,
                          1e-5,
                          1e-4,
                          5e-324,
                          2.5e-308,
                          DBL_MIN,
                          DBL_MAX,
                          -DBL_MAX,
                          1e21,
                          1e22,
                          0.1,
                          0.5,
                          -1.5,
                          123456.789,
                          9007199254740993.0,
                          std::ldexp(1.0, 63),
                          -std::ldexp(1.0, 63),
                          std::ldexp(1.0, 64),
                          std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()};
  LadderCheck check;
  for (double v : cases) check(v);
  EXPECT_EQ(check.mismatches(), 0u);
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(1e15 - 1), "999999999999999");
  EXPECT_EQ(json_number(1e15), "1e+15");
}

TEST(JsonNumber, MatchesPrintfLadderOnSeededDoubles) {
  std::mt19937_64 rng(20261018);
  LadderCheck check;
  // Random bit patterns: every exponent, subnormals and non-finite too.
  for (int i = 0; i < 300000; ++i) {
    const std::uint64_t b = rng();
    double v;
    std::memcpy(&v, &b, sizeof(v));
    check(v);
  }
  // Integers on both sides of the 1e15 fast-path bound, and small ones.
  for (std::int64_t k = -60000; k < 60000; ++k) {
    check(1e15 + static_cast<double>(k));
    check(-1e15 + static_cast<double>(k));
    check(static_cast<double>(k));
  }
  // Decimal fractions k * 1e-6, the trace's typical modeled times.
  std::uniform_int_distribution<std::int64_t> frac(-2000000000, 2000000000);
  for (int i = 0; i < 200000; ++i) {
    check(static_cast<double>(frac(rng)) * 1e-6);
  }
  // Short mantissas over the whole exponent range.
  std::uniform_int_distribution<int> mant(-(1 << 20), 1 << 20);
  std::uniform_int_distribution<int> expo(-1100, 1000);
  for (int i = 0; i < 150000; ++i) {
    check(std::ldexp(static_cast<double>(mant(rng)), expo(rng)));
  }
  EXPECT_GE(check.checked(), 1000000u);
  EXPECT_EQ(check.mismatches(), 0u);
}

// ---------------------------------------------------------------------------
// Number parsing: bit-equal with strtod, through the tree parser and the
// member reader alike.
// ---------------------------------------------------------------------------

double reader_number(const std::string& token) {
  std::string text = "{\"v\":";
  text += token;
  text += '}';
  JsonObjectReader r(text);
  std::string_view key;
  EXPECT_TRUE(r.next(key));
  JsonField f;
  r.value(f);
  EXPECT_FALSE(r.next(key));
  return f.as_number();
}

TEST(JsonParse, NumbersBitEqualStrtod) {
  const char* tokens[] = {"-0",
                          "0",
                          "123456789012345",
                          "-123456789012345",
                          "1234567890123456",
                          "9007199254740993",
                          "1e5",
                          "1E5",
                          "-1e+5",
                          "1.0",
                          "2.5e-3",
                          "0.1",
                          "1e-400",
                          "-1e-400",
                          "5e-324",
                          "2.4703282292062328e-324",
                          "2.5e-308",
                          "1.7976931348623157e308"};
  for (const char* t : tokens) {
    const double want = std::strtod(t, nullptr);
    const JsonValue tree = parse_json(t);
    ASSERT_TRUE(tree.is_number()) << t;
    EXPECT_EQ(bits_of(tree.as_number()), bits_of(want)) << t;
    EXPECT_EQ(bits_of(reader_number(t)), bits_of(want)) << t;
  }
  EXPECT_EQ(parse_json("1e5").as_number(), 100000.0);
}

TEST(JsonParse, OverflowingNumberParsesAsNull) {
  EXPECT_TRUE(parse_json("1e400").is_null());
  EXPECT_TRUE(parse_json("-1e400").is_null());
  JsonObjectReader r(R"({"v":1e400})");
  std::string_view key;
  ASSERT_TRUE(r.next(key));
  JsonField f;
  r.value(f);
  EXPECT_EQ(f.kind(), JsonValue::Kind::kNull);
  EXPECT_THROW(f.as_number(), CheckError);
}

TEST(JsonParse, IntegralityChecksRangeBeforeConverting) {
  EXPECT_EQ(parse_json("-9223372036854775808").as_int(), INT64_MIN);
  EXPECT_THROW(parse_json("9223372036854775808").as_int(), CheckError);
  EXPECT_THROW(parse_json("1e300").as_int(), CheckError);
  EXPECT_THROW(parse_json("-1e300").as_int(), CheckError);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_EQ(parse_json("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse_json(" 3 ").as_int(), 3);
}

TEST(JsonParse, NestedStructure) {
  const auto v = parse_json(R"({"a":[1,2,{"b":null}],"c":{"d":true}})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[1].as_int(), 2);
  EXPECT_TRUE(v.at("a").as_array()[2].at("b").is_null());
  EXPECT_EQ(v.at("c").at("d").as_bool(), true);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, ObjectPreservesInsertionOrder) {
  const auto v = parse_json(R"({"z":1,"a":2,"m":3})");
  const auto& members = v.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonParse, DuplicateKeysKeepLast) {
  EXPECT_EQ(parse_json(R"({"k":1,"k":2})").at("k").as_int(), 2);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\/d\b\f\n\r\t")").as_string(),
            "a\"b\\c/d\b\f\n\r\t");
  EXPECT_EQ(parse_json(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  EXPECT_EQ(parse_json(R"("\u2603")").as_string(), "\xe2\x98\x83");
}

TEST(JsonParse, SurrogatePairsDecodeToUtf8) {
  // U+1F600 as a surrogate pair.
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, EscapeRoundTripWithControlCharacters) {
  std::string all;
  for (int c = 0; c < 32; ++c) all += static_cast<char>(c);
  all += "plain \"text\" \\ and UTF-8 \xe2\x98\x83";
  EXPECT_EQ(parse_json(json_quote(all)).as_string(), all);
}

TEST(JsonParse, RejectsMalformedInput) {
  const char* bad[] = {
      "",           "{",         "[1,]",     "{\"a\":}",   "01",
      "1.",         ".5",        "+1",       "nul",        "\"unterminated",
      "\"\\q\"",    "\"\\u12\"", "[1] junk", "{\"a\" 1}",  "nan",
      "\"\\ud83d\"",  // lone high surrogate
  };
  for (const char* s : bad) {
    EXPECT_THROW(parse_json(s), CheckError) << "input: " << s;
  }
}

TEST(JsonParse, RejectsRawControlCharactersInStrings) {
  EXPECT_THROW(parse_json("\"a\nb\""), CheckError);
  // Split literal: "\x01b" would be the single hex escape 0x1b.
  EXPECT_THROW(parse_json(std::string("\"a\x01" "b\"", 5)), CheckError);
}

TEST(JsonParse, PrefixParserAdvancesAcrossLines) {
  const std::string two = "{\"a\":1}\n[2,3]\n";
  std::size_t pos = 0;
  const auto first = parse_json_prefix(two, pos);
  EXPECT_EQ(first.at("a").as_int(), 1);
  const auto second = parse_json_prefix(two, pos);
  EXPECT_EQ(second.as_array()[1].as_int(), 3);
  EXPECT_EQ(pos, two.size());
}

TEST(JsonValue, DumpParseRoundTrip) {
  using JV = JsonValue;
  const JV doc = JV::make_object(
      {{"s", JV::make_string("x\n\"y\"")},
       {"n", JV::make_number(0.1)},
       {"nan", JV::make_number(std::numeric_limits<double>::quiet_NaN())},
       {"arr", JV::make_array({JV::make_bool(true), JV::make_null()})},
       {"o", JV::make_object({{"k", JV::make_number(-3.0)}})}});
  const std::string text = doc.dump();
  const JV back = parse_json(text);
  EXPECT_EQ(back.at("s").as_string(), "x\n\"y\"");
  EXPECT_EQ(back.at("n").as_number(), 0.1);
  EXPECT_TRUE(back.at("nan").is_null());  // documented NaN -> null policy
  EXPECT_EQ(back.at("arr").as_array()[0].as_bool(), true);
  EXPECT_EQ(back.at("o").at("k").as_number(), -3.0);
  // Serialization is stable: dump(parse(dump(v))) == dump(v).
  EXPECT_EQ(back.dump(), text);
}

TEST(JsonValue, AccessorKindMismatchThrows) {
  const auto v = parse_json("[1]");
  EXPECT_THROW(v.as_object(), CheckError);
  EXPECT_THROW(v.as_number(), CheckError);
  EXPECT_THROW(v.at("k"), CheckError);
  EXPECT_THROW(parse_json("1.5").as_int(), CheckError);
}


// ---------------------------------------------------------------------------
// JsonObjectReader
// ---------------------------------------------------------------------------

struct Member {
  std::string key;
  JsonValue::Kind kind;
  std::string text;  // string value, or dump of a number / tree
};

std::vector<Member> read_members(std::string_view text) {
  std::vector<Member> out;
  JsonObjectReader r(text);
  std::string_view key;
  JsonField f;
  while (r.next(key)) {
    Member m{std::string(key), JsonValue::Kind::kNull, ""};
    r.value(f);
    m.kind = f.kind();
    if (f.kind() == JsonValue::Kind::kString) m.text = f.as_string();
    if (f.kind() == JsonValue::Kind::kNumber) m.text = json_number(f.as_number());
    if (f.kind() == JsonValue::Kind::kArray) {
      m.text = JsonValue::make_array(f.as_array()).dump();
    }
    out.push_back(std::move(m));
  }
  return out;
}

TEST(JsonObjectReader, YieldsMembersInDocumentOrderWithDuplicates) {
  const auto m = read_members(
      " {\"b\" : 1 ,\t\"a\":\"x\",\"b\":\"two\",\"t\":true,\"n\":null,"
      "\"arr\":[1,{\"k\":[]}],\"o\":{\"z\":{}}}\r\n");
  ASSERT_EQ(m.size(), 7u);
  EXPECT_EQ(m[0].key, "b");
  EXPECT_EQ(m[0].text, "1");
  EXPECT_EQ(m[1].key, "a");
  EXPECT_EQ(m[1].text, "x");
  EXPECT_EQ(m[2].key, "b");
  EXPECT_EQ(m[2].kind, JsonValue::Kind::kString);
  EXPECT_EQ(m[2].text, "two");
  EXPECT_EQ(m[3].kind, JsonValue::Kind::kBool);
  EXPECT_EQ(m[4].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(m[5].text, "[1,{\"k\":[]}]");
  EXPECT_EQ(m[6].kind, JsonValue::Kind::kObject);
  EXPECT_TRUE(read_members("{}").empty());
  EXPECT_TRUE(read_members(" { } ").empty());
}

TEST(JsonObjectReader, DecodesEscapedKeysAndValues) {
  const auto m = read_members(R"({"\u0074ype":"a\"b\u00e9","plain":"q"})");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].key, "type");
  EXPECT_EQ(m[0].text, "a\"b\xc3\xa9");
  EXPECT_EQ(m[1].text, "q");
}

TEST(JsonObjectReader, EscapedStringSurvivesACopyOfTheField) {
  JsonObjectReader r(R"({"s":"tab\there, and long enough to leave SSO"})");
  std::string_view key;
  ASSERT_TRUE(r.next(key));
  JsonField f;
  r.value(f);
  const JsonField copy = f;
  f = JsonField{};
  EXPECT_EQ(copy.as_string(), "tab\there, and long enough to leave SSO");
}

TEST(JsonObjectReader, RejectsWhatParseJsonRejects) {
  // Valid JSON, but not an object.
  for (const char* s : {"[1]", "\"s\"", "1", "null"}) {
    EXPECT_THROW(JsonObjectReader{s}, CheckError) << "input: " << s;
  }
  const char* bad[] = {
      "",           "{",           "{\"a\"}",     "{\"a\":}",     "{\"a\":1,}",
      "{,}",        "{\"a\" 1}",   "{\"a\":1 \"b\":2}",
      "{\"a\":01}", "{\"a\":1.}",  "{\"a\":tru}",  "{\"a\":[1,]}",
      "{\"a\":\"\\q\"}",           "{\"a\":1} x",  "{\"a\":1}}",
      "{a:1}",      "{\"a\":\"\x01\"}",
  };
  for (const char* s : bad) {
    EXPECT_THROW(parse_json(s), CheckError) << "input: " << s;
    EXPECT_THROW(
        {
          JsonObjectReader r(s);
          std::string_view key;
          JsonField f;
          while (r.next(key)) r.value(f);
        },
        CheckError)
        << "input: " << s;
  }
}

}  // namespace
}  // namespace dsouth::util
