#include "stats/ranking.hpp"

#include "stats/rng.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace stats = relperf::stats;

TEST(Midrank, NoTies) {
    const std::vector<double> xs = {30.0, 10.0, 20.0};
    const std::vector<double> ranks = stats::midrank(xs);
    EXPECT_EQ(ranks, (std::vector<double>{3.0, 1.0, 2.0}));
}

TEST(Midrank, TiesGetAverageRank) {
    const std::vector<double> xs = {1.0, 2.0, 2.0, 3.0};
    const std::vector<double> ranks = stats::midrank(xs);
    EXPECT_EQ(ranks, (std::vector<double>{1.0, 2.5, 2.5, 4.0}));
}

TEST(KendallTau, PerfectAgreementAndReversal) {
    const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
    const std::vector<double> up = {10.0, 20.0, 30.0, 40.0};
    const std::vector<double> down = {40.0, 30.0, 20.0, 10.0};
    EXPECT_DOUBLE_EQ(stats::kendall_tau_b(a, up), 1.0);
    EXPECT_DOUBLE_EQ(stats::kendall_tau_b(a, down), -1.0);
}

TEST(KendallTau, KnownPartialValue) {
    // Pairs: (1,2):C (1,3):C (1,4):C (2,3):D (2,4):C (3,4):C -> (5-1)/6.
    const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
    const std::vector<double> b = {1.0, 3.0, 2.0, 4.0};
    EXPECT_NEAR(stats::kendall_tau_b(a, b), 4.0 / 6.0, 1e-12);
}

TEST(KendallTau, TiesReduceMagnitude) {
    const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
    const std::vector<double> tied = {1.0, 1.0, 2.0, 3.0};
    const double tau = stats::kendall_tau_b(a, tied);
    EXPECT_GT(tau, 0.8);
    EXPECT_LT(tau, 1.0);
}

TEST(KendallTau, ConstantVectorGivesZero) {
    const std::vector<double> a = {1.0, 2.0, 3.0};
    const std::vector<double> constant = {5.0, 5.0, 5.0};
    EXPECT_DOUBLE_EQ(stats::kendall_tau_b(a, constant), 0.0);
}

TEST(SpearmanRho, MonotoneNonlinearIsPerfect) {
    const std::vector<double> a = {1.0, 2.0, 3.0, 4.0, 5.0};
    const std::vector<double> b = {1.0, 8.0, 27.0, 64.0, 125.0}; // cubes
    EXPECT_NEAR(stats::spearman_rho(a, b), 1.0, 1e-12);
    const std::vector<double> neg = {125.0, 64.0, 27.0, 8.0, 1.0};
    EXPECT_NEAR(stats::spearman_rho(a, neg), -1.0, 1e-12);
}

TEST(SpearmanRho, IndependentIsNearZero) {
    stats::Rng rng(3);
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 2000; ++i) {
        a.push_back(rng.normal());
        b.push_back(rng.normal());
    }
    EXPECT_NEAR(stats::spearman_rho(a, b), 0.0, 0.05);
}

TEST(PairwiseDisagreement, CountsFlippedPairs) {
    const std::vector<double> a = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(stats::pairwise_disagreement(a, a), 0.0);
    const std::vector<double> rev = {3.0, 2.0, 1.0};
    EXPECT_DOUBLE_EQ(stats::pairwise_disagreement(a, rev), 1.0);
    // One of three strict pairs flipped.
    const std::vector<double> one_flip = {2.0, 1.0, 3.0};
    EXPECT_NEAR(stats::pairwise_disagreement(a, one_flip), 1.0 / 3.0, 1e-12);
}

TEST(PairwiseDisagreement, TiesInPredictionCountAsDisagreement) {
    const std::vector<double> a = {1.0, 2.0};
    const std::vector<double> tied = {5.0, 5.0};
    EXPECT_DOUBLE_EQ(stats::pairwise_disagreement(a, tied), 1.0);
}

TEST(RandIndex, IdenticalPartitionsScoreOne) {
    const std::vector<int> labels = {1, 1, 2, 2, 3};
    EXPECT_DOUBLE_EQ(stats::adjusted_rand_index(labels, labels), 1.0);
}

TEST(RandIndex, RelabeledPartitionsScoreOne) {
    const std::vector<int> a = {1, 1, 2, 2};
    const std::vector<int> b = {7, 7, 3, 3}; // same structure, new names
    EXPECT_DOUBLE_EQ(stats::adjusted_rand_index(a, b), 1.0);
}

TEST(RandIndex, AdjustedHandlesDegeneratePartitions) {
    const std::vector<int> ones = {1, 1, 1};
    const std::vector<int> singletons = {1, 2, 3};
    EXPECT_DOUBLE_EQ(stats::adjusted_rand_index(ones, ones), 1.0);
    EXPECT_DOUBLE_EQ(stats::adjusted_rand_index(singletons, singletons), 1.0);
    // All-in-one vs all-singletons: no agreement beyond chance.
    EXPECT_LE(stats::adjusted_rand_index(ones, singletons), 0.0);
}

TEST(RandIndex, InvalidInputsThrow) {
    const std::vector<int> a = {1, 2};
    const std::vector<int> short_b = {1};
    EXPECT_THROW((void)stats::adjusted_rand_index(a, short_b),
                 relperf::InvalidArgument);
}

TEST(Ranking, InvalidInputsThrow) {
    const std::vector<double> a = {1.0, 2.0};
    const std::vector<double> short_b = {1.0};
    EXPECT_THROW((void)stats::kendall_tau_b(a, short_b), relperf::InvalidArgument);
    EXPECT_THROW((void)stats::spearman_rho(a, short_b), relperf::InvalidArgument);
    EXPECT_THROW((void)stats::pairwise_disagreement(a, short_b),
                 relperf::InvalidArgument);
    const std::vector<double> single = {1.0};
    EXPECT_THROW((void)stats::kendall_tau_b(single, single),
                 relperf::InvalidArgument);
}
