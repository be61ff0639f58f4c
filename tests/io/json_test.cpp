// The shared JSON layer: round-trip number rendering, string escaping,
// and the strict recursive-descent parser behind the service protocol.
#include "io/json.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <limits>
#include <string>

namespace rat::io {
namespace {

double reparse(const std::string& s) {
  double x = 0.0;
  std::from_chars(s.data(), s.data() + s.size(), x);
  return x;
}

TEST(Json, NumberIsShortestRoundTrip) {
  // Exact values print exactly; irrationals survive the round trip.
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(75e6), "75000000");
  for (double x : {0.1, 1.0 / 3.0, 0.578, 1e300, -2.5e-8,
                   std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(reparse(json_number(x)), x) << json_number(x);
  }
}

TEST(Json, NumberTakesTheFirstRoundTripOf15To17Digits) {
  EXPECT_EQ(json_number(0.1 + 0.2), "0.30000000000000004");  // %.17g
  EXPECT_EQ(json_number(1.0 / 3.0), "0.3333333333333333");   // %.16g
  EXPECT_EQ(json_number(1e21), "1e+21");                     // %.15g
  // Not the shortest round-trip text, which would be "5e-324".
  EXPECT_EQ(json_number(std::numeric_limits<double>::denorm_min()),
            "4.94065645841247e-324");
}

TEST(Json, EscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(json_str("x\ny"), "\"x\\ny\"");
}

TEST(JsonParse, ScalarsAndContainers) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").boolean);
  EXPECT_FALSE(parse_json("false").boolean);
  EXPECT_EQ(parse_json("-12.5e2").number, -1250.0);
  EXPECT_EQ(parse_json("\"hi\"").string, "hi");
  const JsonValue arr = parse_json(" [1, \"two\", [3]] ");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.items.size(), 3u);
  EXPECT_EQ(arr.items[0].number, 1.0);
  EXPECT_EQ(arr.items[1].string, "two");
  EXPECT_EQ(arr.items[2].items[0].number, 3.0);
  const JsonValue obj = parse_json("{\"a\":{\"b\":true},\"c\":[]}");
  ASSERT_TRUE(obj.is_object());
  EXPECT_TRUE(obj.find("a")->find("b")->boolean);
  EXPECT_TRUE(obj.find("c")->is_array());
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapesIncludingSurrogatePairs) {
  EXPECT_EQ(parse_json("\"a\\n\\t\\\"\\\\b\"").string, "a\n\t\"\\b");
  EXPECT_EQ(parse_json("\"\\u0041\"").string, "A");
  EXPECT_EQ(parse_json("\"\\u00e9\"").string, "\xc3\xa9");      // é
  EXPECT_EQ(parse_json("\"\\u20ac\"").string, "\xe2\x82\xac");  // €
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse_json("\"\\ud83d\\ude00\"").string,
            "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1.2.3", "nan",
        "\"unterminated", "\"bad\\q\"", "\"\\ud83d\"",  // lone surrogate
        "{} trailing", "\"tab\there\"",
        // RFC 8259 numbers: no leading zero, digits on both sides of a dot.
        "01", "-01", "00", "1.", "1.e5", "-.5"}) {
    EXPECT_THROW(parse_json(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonParse, ReportsByteOffset) {
  try {
    parse_json("{\"a\":flase}");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(JsonParse, DepthCapStopsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_THROW(parse_json(deep), std::invalid_argument);
  std::string ok_depth;
  for (int i = 0; i < 32; ++i) ok_depth += '[';
  for (int i = 0; i < 32; ++i) ok_depth += ']';
  EXPECT_NO_THROW(parse_json(ok_depth));
}

TEST(JsonParse, NonFiniteNumbersAreRejected) {
  EXPECT_THROW(parse_json("1e999"), std::invalid_argument);
  EXPECT_THROW(parse_json("Infinity"), std::invalid_argument);
}

}  // namespace
}  // namespace rat::io
