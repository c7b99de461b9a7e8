#include "support/str.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

namespace str = relperf::str;

TEST(StrFormat, BasicSubstitution) {
    EXPECT_EQ(str::format("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
    EXPECT_EQ(str::format("%s", "hello"), "hello");
    EXPECT_EQ(str::format("%.2f", 3.14159), "3.14");
}

TEST(StrFormat, LongOutputIsNotTruncated) {
    const std::string big(500, 'x');
    EXPECT_EQ(str::format("%s", big.c_str()).size(), 500u);
}

TEST(StrFixed, RoundsToRequestedDigits) {
    EXPECT_EQ(str::fixed(1.0 / 3.0, 3), "0.333");
    EXPECT_EQ(str::fixed(2.5, 0), "2");
    EXPECT_EQ(str::fixed(-1.05, 1), "-1.1");
}

TEST(StrHumanSeconds, PicksSensibleUnit) {
    EXPECT_EQ(str::human_seconds(2.5), "2.500 s");
    EXPECT_EQ(str::human_seconds(0.0425), "42.500 ms");
    EXPECT_EQ(str::human_seconds(3.2e-5), "32.000 us");
    EXPECT_EQ(str::human_seconds(4e-8), "40.0 ns");
}

TEST(StrJoin, JoinsWithSeparator) {
    EXPECT_EQ(str::join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(str::join({}, ", "), "");
    EXPECT_EQ(str::join({"only"}, "-"), "only");
}

TEST(StrSplit, SplitsAndPreservesEmptyFields) {
    const auto parts = str::split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(StrTrim, StripsAsciiWhitespace) {
    EXPECT_EQ(str::trim("  hello \t\n"), "hello");
    EXPECT_EQ(str::trim(""), "");
    EXPECT_EQ(str::trim(" \t "), "");
    EXPECT_EQ(str::trim("x"), "x");
}

TEST(StrStartsWith, MatchesPrefixesOnly) {
    EXPECT_TRUE(str::starts_with("--flag", "--"));
    EXPECT_FALSE(str::starts_with("-f", "--"));
    EXPECT_TRUE(str::starts_with("abc", ""));
    EXPECT_FALSE(str::starts_with("", "a"));
}

TEST(StrPad, PadsToWidth) {
    EXPECT_EQ(str::pad_left("7", 3), "  7");
    EXPECT_EQ(str::pad_right("7", 3), "7  ");
    EXPECT_EQ(str::pad_left("long", 2), "long");
    EXPECT_EQ(str::pad_right("long", 2), "long");
}

TEST(StrToString, StreamsValues) {
    EXPECT_EQ(str::to_string(42), "42");
    EXPECT_EQ(str::to_string("abc"), "abc");
}

TEST(StrParse, SizeAcceptsDecimalAndHex) {
    EXPECT_EQ(str::parse_size("42", "--n"), 42u);
    EXPECT_EQ(str::parse_size(" 7 ", "--n"), 7u);
    EXPECT_EQ(str::parse_u64("0xff", "seed"), 255u);
    EXPECT_EQ(str::parse_u64("0X10", "seed"), 16u);
    EXPECT_EQ(str::parse_u64("18446744073709551615", "seed"),
              18446744073709551615ULL);
    // A zero-padded seed is decimal, never octal: `--seed 010` is seed 10,
    // and `08` is 8, not an error. Hex needs its explicit prefix.
    EXPECT_EQ(str::parse_u64("010", "seed"), 10u);
    EXPECT_EQ(str::parse_u64("08", "seed"), 8u);
    EXPECT_THROW((void)str::parse_u64("0x", "seed"), relperf::InvalidArgument);
    EXPECT_THROW((void)str::parse_u64("ff", "seed"), relperf::InvalidArgument);
}

TEST(StrParse, SizeIsDecimalEvenWhenZeroPadded) {
    // Sizes are counts and indices: a zero-padded field is decimal, never
    // octal, and a C prefix is junk. Seeds also take a `0x` prefix (above).
    EXPECT_EQ(str::parse_size("08", "measurement_index"), 8u);
    EXPECT_EQ(str::parse_size("010", "measurement_index"), 10u);
    EXPECT_THROW((void)str::parse_size("0x1e", "measurement_index"),
                 relperf::InvalidArgument);
}

TEST(StrParse, RejectsJunkWithTheContextInTheMessage) {
    const auto expect_invalid = [](auto&& call, const char* context) {
        try {
            call();
            FAIL() << "expected InvalidArgument";
        } catch (const relperf::InvalidArgument& e) {
            EXPECT_NE(std::string(e.what()).find(context), std::string::npos)
                << e.what();
        }
    };
    expect_invalid([] { (void)str::parse_size("12abc", "--sizes"); }, "--sizes");
    expect_invalid([] { (void)str::parse_size("", "--sizes"); }, "--sizes");
    expect_invalid([] { (void)str::parse_size("-3", "--sizes"); }, "--sizes");
    expect_invalid([] { (void)str::parse_double("1.2.3", "--eps"); }, "--eps");
    expect_invalid([] { (void)str::parse_double("", "--eps"); }, "--eps");
}

TEST(StrParse, SizeListSplitsTrimsAndValidates) {
    EXPECT_EQ(str::parse_size_list("64,256", "--sizes"),
              (std::vector<std::size_t>{64, 256}));
    EXPECT_EQ(str::parse_size_list(" 1 , 2 , 3 ", "--sizes"),
              (std::vector<std::size_t>{1, 2, 3}));
    EXPECT_THROW((void)str::parse_size_list("64,,256", "--sizes"),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)str::parse_size_list("64,junk", "--sizes"),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)str::parse_size_list("", "--sizes"),
                 relperf::InvalidArgument);
}

TEST(StrParse, SizeListFormatRoundTrips) {
    const std::vector<std::size_t> values = {0, 50, 300};
    EXPECT_EQ(str::format_size_list(values), "0,50,300");
    EXPECT_EQ(str::parse_size_list(str::format_size_list(values), "sizes"),
              values);
    EXPECT_EQ(str::format_size_list({7}), "7");
}
