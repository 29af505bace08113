/**
 * @file
 * Tests for the minimal JSON value type (common/json.hh): construction,
 * deterministic dumping, and the strict parser (round-trips, escapes,
 * error reporting).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/json.hh"

using namespace pargpu;

TEST(JsonTest, ScalarConstruction)
{
    EXPECT_TRUE(Json{}.isNull());
    EXPECT_TRUE(Json{true}.isBool());
    EXPECT_TRUE(Json{1.5}.isNumber());
    EXPECT_TRUE(Json{"hi"}.isString());
    EXPECT_DOUBLE_EQ(Json{std::uint64_t{42}}.number(), 42.0);
    EXPECT_EQ(Json{"hi"}.str(), "hi");
}

TEST(JsonTest, DumpCompactObjectIsSortedByKey)
{
    Json o = Json::object();
    o.set("zeta", Json{1});
    o.set("alpha", Json{2});
    EXPECT_EQ(o.dump(), R"({"alpha":2,"zeta":1})");
}

TEST(JsonTest, IntegersDumpWithoutFraction)
{
    EXPECT_EQ(Json{std::uint64_t{9007199254740992ull}}.dump(),
              "9007199254740992");
    EXPECT_EQ(Json{123456789}.dump(), "123456789");
    EXPECT_EQ(Json{0.5}.dump(), "0.5");
}

TEST(JsonTest, NonFiniteNumbersDumpAsNull)
{
    EXPECT_EQ(Json{std::numeric_limits<double>::infinity()}.dump(), "null");
    EXPECT_EQ(Json{std::numeric_limits<double>::quiet_NaN()}.dump(),
              "null");
}

TEST(JsonTest, StringEscapesRoundTrip)
{
    Json s{"line\n\"quote\"\tand\\slash"};
    std::string error;
    Json back = Json::parse(s.dump(), &error);
    ASSERT_TRUE(back.isString()) << error;
    EXPECT_EQ(back.str(), s.str());
}

TEST(JsonTest, ParseDocumentAndChainLookups)
{
    std::string error;
    Json doc = Json::parse(
        R"({"a": [1, 2.5, "x"], "b": {"c": true, "d": null}})", &error);
    ASSERT_TRUE(doc.isObject()) << error;
    EXPECT_DOUBLE_EQ(doc["a"][0].number(), 1.0);
    EXPECT_DOUBLE_EQ(doc["a"][1].number(), 2.5);
    EXPECT_EQ(doc["a"][2].str(), "x");
    EXPECT_TRUE(doc["b"]["c"].boolean());
    EXPECT_TRUE(doc["b"]["d"].isNull());
    // Absent keys and out-of-range indices chain to null, not UB.
    EXPECT_TRUE(doc["missing"]["deep"][9].isNull());
}

TEST(JsonTest, ParseUnicodeEscape)
{
    std::string error;
    Json v = Json::parse("\"a\\u0041b\"", &error);
    ASSERT_TRUE(v.isString()) << error;
    EXPECT_EQ(v.str(), "aAb");
}

TEST(JsonTest, ParseJoinsEscapedSurrogatePairs)
{
    // U+1F600 is one 4-byte UTF-8 sequence, not two 3-byte surrogate
    // encodings (CESU-8).
    std::string error;
    Json v = Json::parse("\"\\ud83d\\ude00\"", &error);
    ASSERT_TRUE(v.isString()) << error;
    EXPECT_EQ(v.str(), "\xF0\x9F\x98\x80");
    v = Json::parse("\"x\\uD800\\uDC00y\"", &error);
    ASSERT_TRUE(v.isString()) << error;
    EXPECT_EQ(v.str(), "x\xF0\x90\x80\x80y"); // U+10000
    v = Json::parse("\"\\udbff\\udfff\"", &error);
    ASSERT_TRUE(v.isString()) << error;
    EXPECT_EQ(v.str(), "\xF4\x8F\xBF\xBF"); // U+10FFFF
    // BMP code points either side of the surrogate block are unchanged.
    v = Json::parse("\"\\ud7ff\\ue000\"", &error);
    ASSERT_TRUE(v.isString()) << error;
    EXPECT_EQ(v.str(), "\xED\x9F\xBF\xEE\x80\x80");
}

TEST(JsonTest, ParseRejectsLoneSurrogates)
{
    for (const char *text : {
             "\"\\ud800\"",        // High half at the end of the string.
             "\"\\udbff x\"",      // High half followed by plain text.
             "\"\\ud83d\\u0041\"", // High half followed by a non-low.
             "\"\\ud83d\\ud83d\"", // Two high halves.
             "\"\\ude00\"",        // Low half on its own.
             "\"\\ude00\\ud83d\"", // Pair in the wrong order.
             "\"\\ud83d\\",        // Input ends inside the second escape.
             "\"\\ud83d\\ude0\"",  // Truncated low half.
         }) {
        std::string error;
        EXPECT_TRUE(Json::parse(text, &error).isNull()) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
    std::string error;
    Json::parse("\"\\ud800\"", &error);
    EXPECT_NE(error.find("surrogate"), std::string::npos) << error;
}

TEST(JsonTest, ParseRejectsNonFiniteNumbers)
{
    for (const char *text : {"1e999", "-1e999", "[1, 2e400]",
                             "{\"id\": 1E+999}"}) {
        std::string error;
        EXPECT_TRUE(Json::parse(text, &error).isNull()) << text;
        EXPECT_NE(error.find("out of range"), std::string::npos) << text;
    }
    // Underflow rounds to a finite zero and stays accepted, as does the
    // largest finite double.
    std::string error;
    Json v = Json::parse("1e-999", &error);
    ASSERT_TRUE(v.isNumber()) << error;
    EXPECT_EQ(v.number(), 0.0);
    v = Json::parse("1.7976931348623157e308", &error);
    ASSERT_TRUE(v.isNumber()) << error;
    EXPECT_TRUE(std::isfinite(v.number()));
}

TEST(JsonTest, ParseRejectsMalformedInput)
{
    std::string error;
    EXPECT_TRUE(Json::parse("{", &error).isNull());
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(Json::parse("[1,]", &error).isNull());
    EXPECT_TRUE(Json::parse("tru", &error).isNull());
    EXPECT_TRUE(Json::parse("", &error).isNull());
    // Trailing garbage after a valid document is an error.
    EXPECT_TRUE(Json::parse("{} x", &error).isNull());
}

TEST(JsonTest, DumpParseRoundTripNested)
{
    Json root = Json::object();
    Json arr = Json::array();
    for (int i = 0; i < 3; ++i) {
        Json e = Json::object();
        e.set("i", Json{i});
        e.set("sq", Json{i * i});
        arr.push(std::move(e));
    }
    root.set("rows", std::move(arr));
    root.set("ok", Json{true});

    for (int indent : {-1, 0, 2}) {
        std::string error;
        Json back = Json::parse(root.dump(indent), &error);
        ASSERT_TRUE(back.isObject()) << error;
        EXPECT_EQ(back.dump(), root.dump());
    }
}

TEST(JsonTest, ParseRejectsNestingBeyondTheLimit)
{
    // The parser recurses once per container level: a hostile document
    // must come back as a parse error, not overflow the stack.
    std::string error;
    EXPECT_TRUE(Json::parse(std::string(200000, '['), &error).isNull());
    EXPECT_NE(error.find("nesting"), std::string::npos) << error;

    const auto arrays = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
            std::string(static_cast<std::size_t>(depth), ']');
    };
    error.clear();
    EXPECT_TRUE(Json::parse(arrays(Json::kMaxParseDepth), &error).isArray())
        << error;
    EXPECT_TRUE(Json::parse(arrays(Json::kMaxParseDepth + 1), &error)
                    .isNull());
    EXPECT_NE(error.find("nesting"), std::string::npos) << error;

    // Objects count toward the same limit as arrays.
    std::string objects;
    for (int d = 0; d <= Json::kMaxParseDepth; ++d)
        objects += "{\"k\":";
    objects += "1";
    objects += std::string(Json::kMaxParseDepth + 1, '}');
    error.clear();
    EXPECT_TRUE(Json::parse(objects, &error).isNull());
    EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}
