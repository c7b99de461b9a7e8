#include "workloads/assignment.hpp"

#include "stats/rng.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <set>

namespace workloads = relperf::workloads;
using relperf::stats::Rng;
using workloads::ExecutionPolicy;
using workloads::Placement;
using workloads::VariantAssignment;

TEST(VariantAssignment, PlainLetterStringMeansInherit) {
    const VariantAssignment v("DDA");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v.at(0).placement, Placement::Device);
    EXPECT_EQ(v.at(2).placement, Placement::Accelerator);
    for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_TRUE(v.at(i).backend.empty());
    }
    EXPECT_TRUE(v.uniform_inherit());
    // Canonical print keeps the paper's names for pure-placement variants.
    EXPECT_EQ(v.str(), "DDA");
    EXPECT_EQ(v.alg_name(), "algDDA");
}

TEST(VariantAssignment, ExtendedSyntaxParsesPerTaskBackends) {
    const VariantAssignment v("D:portable,A:blas");
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v.at(0).placement, Placement::Device);
    EXPECT_EQ(v.at(0).backend, "portable");
    EXPECT_EQ(v.at(1).placement, Placement::Accelerator);
    EXPECT_EQ(v.at(1).backend, "blas");
    EXPECT_FALSE(v.uniform_inherit());
    EXPECT_EQ(v.str(), "D:portable,A:blas");
    EXPECT_EQ(v.alg_name(), "algD:portable,A:blas");
}

TEST(VariantAssignment, MixedInheritAndExplicitFields) {
    const VariantAssignment v("D,A:blas,D");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_TRUE(v.at(0).backend.empty());
    EXPECT_EQ(v.at(1).backend, "blas");
    EXPECT_TRUE(v.at(2).backend.empty());
    EXPECT_EQ(v.str(), "D,A:blas,D");
}

TEST(VariantAssignment, CommaSyntaxWithoutBackendsPrintsCanonically) {
    // "D,A" parses, but the canonical form of an all-inherit variant is the
    // plain letter string.
    const VariantAssignment v("D,A");
    EXPECT_TRUE(v.uniform_inherit());
    EXPECT_EQ(v.str(), "DA");
    EXPECT_EQ(v, VariantAssignment("DA"));
}

TEST(VariantAssignment, ResolvedBackendPrefersPolicyOverChainDefault) {
    const VariantAssignment v("D,A:blas");
    EXPECT_EQ(v.resolved_backend(0, "portable"), "portable"); // inherits
    EXPECT_EQ(v.resolved_backend(1, "portable"), "blas");     // overrides
    EXPECT_EQ(v.resolved_backend(0, ""), "");                 // ambient
}

TEST(VariantAssignment, MalformedStringsThrow) {
    EXPECT_THROW(VariantAssignment(""), relperf::InvalidArgument);
    EXPECT_THROW(VariantAssignment("D:"), relperf::InvalidArgument);
    EXPECT_THROW(VariantAssignment("X:blas"), relperf::InvalidArgument);
    EXPECT_THROW(VariantAssignment("DA:blas"), relperf::InvalidArgument);
    EXPECT_THROW(VariantAssignment("D,,A"), relperf::InvalidArgument);
    EXPECT_THROW(VariantAssignment("D:bl as"), relperf::InvalidArgument);
    EXPECT_THROW(VariantAssignment("D:a:b"), relperf::InvalidArgument);
    EXPECT_THROW(VariantAssignment("D,"), relperf::InvalidArgument);
}

TEST(VariantAssignment, PolicyVectorConstructorValidates) {
    const VariantAssignment v(std::vector<ExecutionPolicy>{
        {Placement::Device, "portable"}, {Placement::Accelerator, ""}});
    EXPECT_EQ(v.str(), "D:portable,A");
    EXPECT_THROW(VariantAssignment(std::vector<ExecutionPolicy>{}),
                 relperf::InvalidArgument);
    EXPECT_THROW(VariantAssignment(std::vector<ExecutionPolicy>{
                     {Placement::Device, "bad name"}}),
                 relperf::InvalidArgument);
}

TEST(VariantAssignment, Equality) {
    EXPECT_EQ(VariantAssignment("D:blas,A"), VariantAssignment("D:blas,A"));
    EXPECT_FALSE(VariantAssignment("D:blas,A") == VariantAssignment("D,A"));
    EXPECT_FALSE(VariantAssignment("DA") == VariantAssignment("AD"));
}

TEST(VariantAssignment, RoundTripFuzz) {
    // parse(str()) == identity over random variants, including all-inherit
    // ones (which canonicalize to plain letter strings).
    const std::vector<std::string> backends = {"", "portable", "blas",
                                               "reference", "x-9_y"};
    Rng rng(20260729);
    for (int trial = 0; trial < 500; ++trial) {
        const std::size_t k = 1 + rng.uniform_index(6);
        std::vector<ExecutionPolicy> policies;
        for (std::size_t i = 0; i < k; ++i) {
            policies.push_back(ExecutionPolicy{
                rng.bernoulli(0.5) ? Placement::Device : Placement::Accelerator,
                backends[rng.uniform_index(backends.size())]});
        }
        const VariantAssignment original(policies);
        const VariantAssignment reparsed(original.str());
        EXPECT_EQ(original, reparsed) << original.str();
        EXPECT_EQ(original.alg_name(), reparsed.alg_name());
    }
}

TEST(VariantAssignment, LegacyStringRoundTripFuzz) {
    Rng rng(0xFACE);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t k = 1 + rng.uniform_index(10);
        std::string letters;
        for (std::size_t i = 0; i < k; ++i) {
            letters.push_back(rng.bernoulli(0.5) ? 'D' : 'A');
        }
        const VariantAssignment v(letters);
        EXPECT_EQ(v.str(), letters);
        std::vector<ExecutionPolicy> inherit;
        for (const char c : letters) {
            inherit.push_back(ExecutionPolicy{workloads::placement_from_char(c), ""});
        }
        EXPECT_EQ(v, VariantAssignment(inherit));
    }
}

TEST(EnumerateVariants, CountsAndOrder) {
    const auto variants =
        workloads::enumerate_variants(2, {"portable", "blas"});
    ASSERT_EQ(variants.size(), 16u); // (2*2)^2
    // Placement-major order (the enumerate_assignments order), then the
    // backend odometer with the most-significant task first.
    EXPECT_EQ(variants[0].str(), "D:portable,D:portable");
    EXPECT_EQ(variants[1].str(), "D:portable,D:blas");
    EXPECT_EQ(variants[2].str(), "D:blas,D:portable");
    EXPECT_EQ(variants[3].str(), "D:blas,D:blas");
    EXPECT_EQ(variants[4].str(), "D:portable,A:portable");
    EXPECT_EQ(variants[15].str(), "A:blas,A:blas");

    std::set<std::string> names;
    for (const auto& v : variants) names.insert(v.alg_name());
    EXPECT_EQ(names.size(), variants.size()); // all distinct
}

TEST(EnumerateVariants, SingleBackendMirrorsAssignments) {
    const auto variants = workloads::enumerate_variants(3, {"portable"});
    const auto assignments = workloads::enumerate_assignments(3);
    ASSERT_EQ(variants.size(), assignments.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
        for (std::size_t task = 0; task < 3; ++task) {
            EXPECT_EQ(variants[i].at(task).placement,
                      assignments[i].at(task).placement);
            EXPECT_EQ(variants[i].at(task).backend, "portable");
        }
    }
}

TEST(EnumerateVariants, GuardsShareTheNamedConstant) {
    // Both enumerators refuse k >= kMaxEnumeratedTasks with a typed error
    // naming the offending k.
    const std::size_t k = workloads::kMaxEnumeratedTasks;
    try {
        (void)workloads::enumerate_assignments(k);
        FAIL() << "enumerate_assignments must throw at the guard";
    } catch (const relperf::InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find(std::to_string(k)),
                  std::string::npos)
            << e.what();
    }
    try {
        (void)workloads::enumerate_variants(k, {"portable"});
        FAIL() << "enumerate_variants must throw at the guard";
    } catch (const relperf::InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find(std::to_string(k)),
                  std::string::npos)
            << e.what();
    }
    // One below the guard is legal for the assignment enumerator...
    EXPECT_NO_THROW(
        (void)workloads::enumerate_assignments(workloads::kMaxEnumeratedTasks - 1));
    // ...but the variant product guard still applies: (2*4)^19 explodes.
    EXPECT_THROW((void)workloads::enumerate_variants(
                     workloads::kMaxEnumeratedTasks - 1,
                     {"a", "b", "c", "d"}),
                 relperf::InvalidArgument);
}

TEST(EnumerateVariants, InvalidArgumentsThrow) {
    EXPECT_THROW((void)workloads::enumerate_variants(0, {"portable"}),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)workloads::enumerate_variants(2, {}),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)workloads::enumerate_variants(2, {"portable", "portable"}),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)workloads::enumerate_variants(2, {""}),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)workloads::enumerate_variants(2, {"bad name"}),
                 relperf::InvalidArgument);
}
