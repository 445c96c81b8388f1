/**
 * @file
 * Tests of the shared JSON module: every byte survives escape ->
 * parse, the reader's limits come back as typed errors (nesting,
 * non-finite numbers, bad \u escapes, truncation anywhere in a real
 * bench golden), and duplicate keys resolve first-wins.
 *
 * The repository root is injected as GPUPM_REPO_DIR by the build so
 * the test finds bench/golden/ regardless of the ctest working
 * directory.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/json.hh"

#ifndef GPUPM_REPO_DIR
#error "GPUPM_REPO_DIR must be defined by the build"
#endif

namespace
{

using namespace gpupm;

/** Parse expecting failure; returns the error. */
json::Error
rejected(const std::string &text)
{
    json::Value v;
    json::Error err;
    EXPECT_FALSE(json::parse(text, v, err)) << text;
    return err;
}

TEST(Json, EveryByteRoundTripsThroughEscapeAndParse)
{
    std::string all;
    for (int b = 0; b < 256; ++b) {
        const std::string one(1, static_cast<char>(b));
        all += one;
        json::Value v;
        json::Error err;
        ASSERT_TRUE(json::parse(json::quote(one), v, err))
                << "byte " << b << ": " << err.message();
        ASSERT_EQ(v.kind, json::Value::Kind::String);
        EXPECT_EQ(v.str, one) << "byte " << b;
    }
    json::Value v;
    json::Error err;
    ASSERT_TRUE(json::parse(json::quote(all), v, err)) << err.message();
    EXPECT_EQ(v.str, all);
}

TEST(Json, EscapeWritesNoRawControlBytes)
{
    std::string ctl;
    for (int b = 0; b < 0x20; ++b)
        ctl += static_cast<char>(b);
    for (char c : json::escape(ctl))
        EXPECT_GE(static_cast<unsigned char>(c), 0x20);
    EXPECT_EQ(json::escape("a\"b\\c\n\t\r\x01"),
              "a\\\"b\\\\c\\n\\t\\r\\u0001");
    EXPECT_EQ(json::quote("x"), "\"x\"");
    EXPECT_EQ(json::stringObject({}), "{}");
    EXPECT_EQ(json::stringObject({{"a", "1"}, {"b\"", "\n"}}),
              R"({"a":"1","b\"":"\n"})");
}

TEST(Json, DeepNestingIsATypedErrorNotACrash)
{
    const json::Error arrays = rejected(std::string(200000, '['));
    EXPECT_EQ(arrays.code, json::Errc::Nesting);
    EXPECT_EQ(arrays.offset, static_cast<std::size_t>(json::kMaxDepth));

    std::string objects;
    for (int i = 0; i < 100000; ++i)
        objects += "{\"a\":";
    EXPECT_EQ(rejected(objects).code, json::Errc::Nesting);
}

TEST(Json, NestingUpToTheCapParses)
{
    const std::string at_cap = std::string(json::kMaxDepth, '[') +
                               std::string(json::kMaxDepth, ']');
    json::Value v;
    json::Error err;
    EXPECT_TRUE(json::parse(at_cap, v, err)) << err.message();
    EXPECT_EQ(rejected("[" + at_cap + "]").code, json::Errc::Nesting);
}

TEST(Json, EveryTruncationOfABenchGoldenIsAnError)
{
    std::string text;
    ASSERT_TRUE(json::readFile(std::string(GPUPM_REPO_DIR) +
                                       "/bench/golden/"
                                       "BENCH_fig7_validation.json",
                               text));
    json::Value v;
    json::Error err;
    ASSERT_TRUE(json::parse(text, v, err)) << err.message();
    ASSERT_EQ(v.kind, json::Value::Kind::Object);
    ASSERT_NE(v.find("stats"), nullptr);

    // Every prefix that stops short of the closing brace is rejected
    // with an offset inside the input; only trailing whitespace may
    // be cut.
    const std::size_t close = text.rfind('}');
    for (std::size_t n = 0; n < text.size(); ++n) {
        const std::string prefix = text.substr(0, n);
        const bool ok = json::parse(prefix, v, err);
        EXPECT_EQ(ok, n > close) << "prefix of " << n << " bytes";
        if (!ok) {
            EXPECT_LE(err.offset, n);
        }
    }
}

TEST(Json, UnicodeEscapesTakeExactlyFourHexDigits)
{
    json::Value v;
    json::Error err;
    ASSERT_TRUE(json::parse(R"("\u0041\u00e9\u20AC\ud83d\ude00")", v,
                            err))
            << err.message();
    EXPECT_EQ(v.str, "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");

    EXPECT_EQ(rejected(R"("\u12G4")").code, json::Errc::String);
    EXPECT_EQ(rejected(R"("\u12")").code, json::Errc::String);
    EXPECT_EQ(rejected("\"\\u12").code, json::Errc::Truncated);
    EXPECT_EQ(rejected(R"("\ude00")").code, json::Errc::String);
    EXPECT_EQ(rejected(R"("\ud83dx")").code, json::Errc::String);
    EXPECT_EQ(rejected(R"("\q")").code, json::Errc::String);
}

TEST(Json, StandardEscapesAndRawBytesDecode)
{
    json::Value v;
    json::Error err;
    ASSERT_TRUE(json::parse(R"("\"\\\/\b\f\n\r\t")", v, err));
    EXPECT_EQ(v.str, "\"\\/\b\f\n\r\t");
    // Older writers left control bytes raw; their files still load.
    ASSERT_TRUE(json::parse("\"a\x01\tb\xff\"", v, err));
    EXPECT_EQ(v.str, "a\x01\tb\xff");
}

TEST(Json, OnlyFiniteNumbersParse)
{
    for (const char *bad : {"1e999", "-1e999", "nan", "inf", "-inf",
                            "Infinity", "[NaN]", "1.2.3", "--1", "-"})
        EXPECT_NE(rejected(bad).code, json::Errc::Nesting) << bad;
    EXPECT_EQ(rejected("1e999").code, json::Errc::Number);
    EXPECT_EQ(rejected("[1,-]").code, json::Errc::Number);

    json::Value v;
    json::Error err;
    ASSERT_TRUE(json::parse("[0,-2.5e-3,1e308]", v, err));
    ASSERT_EQ(v.array.size(), 3u);
    EXPECT_EQ(v.array[1].number, -2.5e-3);
}

TEST(Json, DuplicateKeysResolveFirstWins)
{
    json::Value v;
    json::Error err;
    ASSERT_TRUE(json::parse(R"({"a":1,"b":true,"a":2})", v, err));
    ASSERT_EQ(v.object.size(), 3u);
    ASSERT_NE(v.find("a"), nullptr);
    EXPECT_EQ(v.find("a")->number, 1.0);
    EXPECT_TRUE(v.find("b")->boolean);
    EXPECT_EQ(v.find("c"), nullptr);
    // find() on a non-object is absent, not an error.
    ASSERT_TRUE(json::parse("[1]", v, err));
    EXPECT_EQ(v.find("a"), nullptr);
}

TEST(Json, ErrorsCarryTheirClassAndOffset)
{
    json::Error err = rejected("[1,2,x]");
    EXPECT_EQ(err.code, json::Errc::Syntax);
    EXPECT_EQ(err.offset, 5u);
    EXPECT_EQ(err.message(), "syntax: unexpected character at byte 5");

    err = rejected("{} x");
    EXPECT_EQ(err.code, json::Errc::Trailing);
    EXPECT_EQ(err.offset, 3u);

    EXPECT_EQ(rejected("").code, json::Errc::Truncated);
    EXPECT_EQ(rejected("{\"a\":1").code, json::Errc::Truncated);
    EXPECT_EQ(rejected("tru").code, json::Errc::Truncated);
    EXPECT_EQ(rejected("trux").code, json::Errc::Syntax);
    EXPECT_EQ(rejected("{1:2}").code, json::Errc::Syntax);
}

} // namespace
