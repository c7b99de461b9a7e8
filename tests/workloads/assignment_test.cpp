#include "workloads/assignment.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

namespace workloads = relperf::workloads;
using workloads::ExecutionPolicy;
using workloads::Placement;
using workloads::VariantAssignment;

TEST(Placement, CharRoundTrip) {
    EXPECT_EQ(workloads::to_char(Placement::Device), 'D');
    EXPECT_EQ(workloads::to_char(Placement::Accelerator), 'A');
    EXPECT_EQ(workloads::placement_from_char('D'), Placement::Device);
    EXPECT_EQ(workloads::placement_from_char('A'), Placement::Accelerator);
    EXPECT_THROW((void)workloads::placement_from_char('X'), relperf::InvalidArgument);
}

// The paper's plain letter-string assignments: placement only, every task
// inheriting the chain backend.

TEST(PlainVariant, ParsesLetterString) {
    const VariantAssignment a("DDA");
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.at(0).placement, Placement::Device);
    EXPECT_EQ(a.at(1).placement, Placement::Device);
    EXPECT_EQ(a.at(2).placement, Placement::Accelerator);
    EXPECT_TRUE(a.uniform_inherit());
    EXPECT_EQ(a.str(), "DDA");
    EXPECT_EQ(a.alg_name(), "algDDA");
}

TEST(PlainVariant, InvalidStringsThrow) {
    EXPECT_THROW(VariantAssignment(""), relperf::InvalidArgument);
    EXPECT_THROW(VariantAssignment("DXA"), relperf::InvalidArgument);
    EXPECT_THROW(VariantAssignment("da"), relperf::InvalidArgument);
}

TEST(PlainVariant, VectorConstructor) {
    const VariantAssignment a(std::vector<ExecutionPolicy>{
        {Placement::Accelerator, ""}, {Placement::Device, ""}});
    EXPECT_EQ(a.str(), "AD");
    EXPECT_EQ(a, VariantAssignment("AD"));
    EXPECT_THROW(VariantAssignment(std::vector<ExecutionPolicy>{}),
                 relperf::InvalidArgument);
}

TEST(PlainVariant, OutOfRangeIndexThrows) {
    const VariantAssignment a("DD");
    EXPECT_THROW((void)a.at(2), relperf::InvalidArgument);
}

TEST(PlainVariant, Equality) {
    EXPECT_EQ(VariantAssignment("DA"), VariantAssignment("DA"));
    EXPECT_FALSE(VariantAssignment("DA") == VariantAssignment("AD"));
}

TEST(EnumerateAssignments, CountsAndOrder) {
    const auto two = workloads::enumerate_assignments(2);
    ASSERT_EQ(two.size(), 4u);
    EXPECT_EQ(two[0].str(), "DD");
    EXPECT_EQ(two[1].str(), "DA");
    EXPECT_EQ(two[2].str(), "AD");
    EXPECT_EQ(two[3].str(), "AA");

    const auto three = workloads::enumerate_assignments(3);
    ASSERT_EQ(three.size(), 8u);
    EXPECT_EQ(three.front().str(), "DDD");
    EXPECT_EQ(three.back().str(), "AAA");
    for (const VariantAssignment& a : three) EXPECT_TRUE(a.uniform_inherit());
}

TEST(EnumerateAssignments, AllDistinct) {
    const auto assignments = workloads::enumerate_assignments(4);
    ASSERT_EQ(assignments.size(), 16u);
    for (std::size_t i = 0; i < assignments.size(); ++i) {
        for (std::size_t j = i + 1; j < assignments.size(); ++j) {
            EXPECT_FALSE(assignments[i] == assignments[j]);
        }
    }
}

TEST(EnumerateAssignments, InvalidCountsThrow) {
    EXPECT_THROW((void)workloads::enumerate_assignments(0), relperf::InvalidArgument);
    EXPECT_THROW((void)workloads::enumerate_assignments(25), relperf::InvalidArgument);
}
