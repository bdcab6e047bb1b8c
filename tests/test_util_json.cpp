/// Tests for util/json: escaping edge cases (control characters, UTF-8
/// pass-through), number emission (exact double round-trips, non-finite →
/// null as documented), and the strict parser (escapes, surrogate pairs,
/// malformed inputs, duplicate keys, parse(dump(v)) round-trips).

#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

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

}  // namespace
}  // namespace dsouth::util
