#include "support/cli.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

#include <sstream>

using relperf::support::CliParser;

namespace {

CliParser make_parser() {
    CliParser cli("test program");
    cli.add_flag("verbose", "more output");
    cli.add_option("n", "measurement count", "30");
    cli.add_option("sigma", "noise level", "0.08");
    cli.add_option("csv", "csv output path", "");
    return cli;
}

bool parse(CliParser& cli, std::initializer_list<const char*> args) {
    std::vector<const char*> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return cli.parse(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(CliParser, DefaultsApplyWithoutArguments) {
    CliParser cli = make_parser();
    ASSERT_TRUE(parse(cli, {}));
    EXPECT_FALSE(cli.flag("verbose"));
    EXPECT_EQ(cli.value("n"), "30");
    EXPECT_EQ(cli.value("sigma"), "0.08");
    EXPECT_FALSE(cli.value_optional("csv").has_value());
}

TEST(CliParser, ParsesFlagsAndValues) {
    CliParser cli = make_parser();
    ASSERT_TRUE(parse(cli, {"--verbose", "--n", "100"}));
    EXPECT_TRUE(cli.flag("verbose"));
    EXPECT_EQ(cli.value("n"), "100");
}

TEST(CliParser, ParsesEqualsSyntax) {
    CliParser cli = make_parser();
    ASSERT_TRUE(parse(cli, {"--sigma=0.5", "--csv=out.csv"}));
    EXPECT_EQ(cli.value("sigma"), "0.5");
    ASSERT_TRUE(cli.value_optional("csv").has_value());
    EXPECT_EQ(*cli.value_optional("csv"), "out.csv");
}

TEST(CliParser, HelpReturnsFalse) {
    CliParser cli = make_parser();
    std::ostringstream captured;
    cli.set_output(&captured); // keep usage text out of the test run's stdout
    EXPECT_FALSE(parse(cli, {"--help"}));
    EXPECT_NE(captured.str().find("test program"), std::string::npos);
    EXPECT_NE(captured.str().find("Options:"), std::string::npos);
}

TEST(CliParser, HelpOutputIsRedirectable) {
    CliParser cli = make_parser();
    std::ostringstream first;
    std::ostringstream second;
    cli.set_output(&first);
    EXPECT_FALSE(parse(cli, {"-h"}));
    cli.set_output(&second);
    EXPECT_FALSE(parse(cli, {"--help"}));
    EXPECT_EQ(first.str(), second.str());
    EXPECT_EQ(first.str(), cli.usage());
}

TEST(CliParser, NullOutputStreamThrows) {
    CliParser cli = make_parser();
    EXPECT_THROW(cli.set_output(nullptr), relperf::InvalidArgument);
}

TEST(CliParser, UnknownOptionThrows) {
    CliParser cli = make_parser();
    EXPECT_THROW(parse(cli, {"--bogus"}), relperf::InvalidArgument);
}

TEST(CliParser, MissingValueThrows) {
    CliParser cli = make_parser();
    EXPECT_THROW(parse(cli, {"--n"}), relperf::InvalidArgument);
}

TEST(CliParser, FlagWithValueThrows) {
    CliParser cli = make_parser();
    EXPECT_THROW(parse(cli, {"--verbose=1"}), relperf::InvalidArgument);
}

TEST(CliParser, PositionalArgumentThrows) {
    CliParser cli = make_parser();
    EXPECT_THROW(parse(cli, {"positional"}), relperf::InvalidArgument);
}

TEST(CliParser, DuplicateDeclarationThrows) {
    CliParser cli("x");
    cli.add_flag("f", "flag");
    EXPECT_THROW(cli.add_option("f", "again", "1"), relperf::InvalidArgument);
}

TEST(CliParser, UsageListsOptionsAndDefaults) {
    CliParser cli = make_parser();
    const std::string usage = cli.usage();
    EXPECT_NE(usage.find("--verbose"), std::string::npos);
    EXPECT_NE(usage.find("--n <value>"), std::string::npos);
    EXPECT_NE(usage.find("(default: 30)"), std::string::npos);
}

TEST(CliParser, QueryingUndeclaredOptionThrows) {
    CliParser cli = make_parser();
    ASSERT_TRUE(parse(cli, {}));
    EXPECT_THROW((void)cli.flag("nope"), relperf::InvalidArgument);
    EXPECT_THROW((void)cli.value("nope"), relperf::InvalidArgument);
}
