/**
 * @file
 * The JSON module (common/json.hh): strict parsing with clean errors,
 * input limits, lexeme-preserving numbers, escaping, and the tree
 * edits the exports use.
 */

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hh"

namespace wg {
namespace {

/** Raw text that must fail Json::parse with a clean error. */
TEST(Json, ParserRejectsBadText)
{
    const char* kBad[] = {
        "",
        "{",
        "{\"a\":",
        "{\"a\":1,}",
        "[1,2",
        "\"unterminated",
        "{\"a\" 1}",
        "nul",
        "truely",
        "01",
        "1.",
        ".5",
        "+1",
        "0x10",
        "1e",
        "NaN",
        "Infinity",
        "{\"a\":1}{\"b\":2}",
        "{\"dup\":1,\"dup\":2}",
        "\"bad escape \\q\"",
        "\"half surrogate \\ud800\"",
        "\xff\xfe",
    };
    for (const char* text : kBad) {
        Json out;
        std::string error;
        EXPECT_FALSE(Json::parse(text, out, error))
            << "accepted: " << text;
        EXPECT_FALSE(error.empty());
    }
}

TEST(Json, LimitsAreEnforced)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse(deep, out, error));
    EXPECT_NE(error.find("depth"), std::string::npos) << error;

    std::string big_string =
        "\"" + std::string((1 << 16) + 1, 'x') + "\"";
    EXPECT_FALSE(Json::parse(big_string, out, error));

    std::ostringstream many;
    many << "[";
    for (int i = 0; i <= (1 << 16); ++i)
        many << (i != 0 ? ",1" : "1");
    many << "]";
    EXPECT_FALSE(Json::parse(many.str(), out, error));
}

TEST(Json, LexemesSurviveRoundTrip)
{
    const char* kNumbers[] = {
        "0",  "-1", "18446744073709551615", "9007199254740993",
        "1e3", "0.5", "-0.25", "1.7976931348623157e308",
    };
    for (const char* n : kNumbers) {
        Json out;
        std::string error;
        ASSERT_TRUE(Json::parse(n, out, error)) << n << ": " << error;
        EXPECT_EQ(out.dump(), n);
    }
    // 2^64-1 survives exactly through asU64 (doubles would round).
    Json big;
    std::string error;
    ASSERT_TRUE(Json::parse("18446744073709551615", big, error));
    EXPECT_EQ(big.asU64(), 18446744073709551615ull);
}

TEST(Json, EscapeRoundTripsEveryControlByte)
{
    std::string raw = "quote\" back\\ slash/";
    for (int c = 1; c < 0x20; ++c)
        raw += static_cast<char>(c);
    const std::string escaped = jsonEscape(raw);
    for (char c : escaped)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << escaped;
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse("\"" + escaped + "\"", parsed, error))
        << error;
    EXPECT_EQ(parsed.asString(), raw);
}

TEST(Json, EscapeAppendsInPlaceByteForByte)
{
    // appendJsonEscaped appends to what is there; every byte maps to
    // exactly the escape a one-character-at-a-time writer emits.
    for (int c = 0; c < 256; ++c) {
        const std::string one(1, static_cast<char>(c));
        std::string want;
        switch (c) {
          case '"': want = "\\\""; break;
          case '\\': want = "\\\\"; break;
          case '\n': want = "\\n"; break;
          case '\t': want = "\\t"; break;
          case '\r': want = "\\r"; break;
          case '\b': want = "\\b"; break;
          case '\f': want = "\\f"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                want = buf;
            } else {
                want = one;
            }
        }
        std::string out = "k";
        appendJsonEscaped(out, "a" + one + "b");
        EXPECT_EQ(out, "ka" + want + "b") << "byte " << c;
        EXPECT_EQ(jsonEscape(one), want) << "byte " << c;
    }
}

TEST(Json, StringLimitFailsAtTheSameOffset)
{
    JsonLimits limits;
    limits.maxStringBytes = 4;
    Json out;
    std::string error;
    EXPECT_TRUE(Json::parse("\"abcd\"", out, error, limits)) << error;
    EXPECT_EQ(out.asString(), "abcd");
    EXPECT_TRUE(Json::parse("\"ab\\nc\"", out, error, limits)) << error;
    EXPECT_FALSE(Json::parse("\"abcde\"", out, error, limits));
    EXPECT_EQ(error, "string exceeds size limit at offset 6");
    EXPECT_FALSE(Json::parse("\"abcdefgh\"", out, error, limits));
    EXPECT_EQ(error, "string exceeds size limit at offset 6");
    EXPECT_FALSE(Json::parse("\"abc\\n\\n\"", out, error, limits));
    EXPECT_EQ(error, "string exceeds size limit at offset 8");
    EXPECT_FALSE(Json::parse("\"abcd", out, error, limits));
    EXPECT_EQ(error, "unterminated string at offset 5");
    EXPECT_FALSE(Json::parse("\"ab\x01\"", out, error, limits));
    EXPECT_EQ(error, "unescaped control character at offset 4");
}

TEST(Json, MembersKeepInsertionOrderAndEditInPlace)
{
    Json doc = Json::object();
    doc.set("b", Json::number(std::uint64_t{1}));
    doc.set("a", Json::object());
    doc.find("a")->set("x", Json::boolean(true));
    doc.set("b", Json::string("replaced"));
    EXPECT_EQ(doc.dump(), "{\"b\":\"replaced\",\"a\":{\"x\":true}}");
    EXPECT_EQ(doc.find("missing"), nullptr);
}

} // namespace
} // namespace wg
