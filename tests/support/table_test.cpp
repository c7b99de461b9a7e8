#include "support/table.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

using relperf::support::Align;
using relperf::support::AsciiTable;

TEST(AsciiTable, RendersHeaderAndRows) {
    AsciiTable t({"Cluster", "Score"});
    t.add_row({"C1", "1.00"});
    t.add_row({"C2", "0.60"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| Cluster | Score |"), std::string::npos);
    EXPECT_NE(out.find("| C1      | 1.00  |"), std::string::npos);
    EXPECT_NE(out.find("| C2      | 0.60  |"), std::string::npos);
    EXPECT_NE(out.find("+---------+-------+"), std::string::npos);
}

TEST(AsciiTable, RightAlignmentPadsLeft) {
    AsciiTable t({"Name", "Value"}, {Align::Left, Align::Right});
    t.add_row({"x", "7"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| x    |     7 |"), std::string::npos);
}

TEST(AsciiTable, ColumnWidthsAdaptToLongestCell) {
    AsciiTable t({"A"});
    t.add_row({"very-long-cell"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| very-long-cell |"), std::string::npos);
}

TEST(AsciiTable, SeparatorsSplitBody) {
    AsciiTable t({"A"});
    t.add_row({"1"});
    t.add_separator();
    t.add_row({"2"});
    const std::string out = t.render();
    // rule appears: top, under-header, separator, bottom = 4 times
    std::size_t rules = 0;
    std::size_t pos = 0;
    while ((pos = out.find("+---", pos)) != std::string::npos) {
        ++rules;
        pos += 4;
    }
    EXPECT_EQ(rules, 4u);
}

TEST(AsciiTable, RowWidthMismatchThrows) {
    AsciiTable t({"A", "B"});
    EXPECT_THROW(t.add_row({"only-one"}), relperf::InvalidArgument);
}

TEST(AsciiTable, EmptyHeaderThrows) {
    EXPECT_THROW(AsciiTable({}), relperf::InvalidArgument);
}

TEST(AsciiTable, AlignsSizeMismatchThrows) {
    EXPECT_THROW(AsciiTable({"A", "B"}, {Align::Left}), relperf::InvalidArgument);
}
