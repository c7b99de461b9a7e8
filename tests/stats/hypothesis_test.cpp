#include "stats/hypothesis.hpp"

#include "stats/rng.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace stats = relperf::stats;

namespace {

std::vector<double> normal_sample(double mean, double sd, int n, std::uint64_t seed) {
    stats::Rng rng(seed);
    std::vector<double> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i) out.push_back(rng.normal(mean, sd));
    return out;
}

} // namespace

TEST(NormalSurvival, ReferenceValues) {
    EXPECT_NEAR(stats::normal_survival(0.0), 0.5, 1e-12);
    EXPECT_NEAR(stats::normal_survival(1.96), 0.0249979, 1e-6);
    EXPECT_NEAR(stats::normal_survival(-1.0), 0.8413447, 1e-6);
}

TEST(KolmogorovSurvival, ReferenceValues) {
    EXPECT_NEAR(stats::kolmogorov_survival(0.0), 1.0, 1e-12);
    // Q(1.0) ~ 0.26999967; Q(1.36) ~ 0.049.
    EXPECT_NEAR(stats::kolmogorov_survival(1.0), 0.26999967, 1e-6);
    EXPECT_NEAR(stats::kolmogorov_survival(1.36), 0.0491, 5e-4);
    EXPECT_LT(stats::kolmogorov_survival(3.0), 1e-6);
}

TEST(MannWhitney, ShiftedSamplesAreSignificant) {
    const auto a = normal_sample(0.0, 1.0, 60, 1);
    const auto b = normal_sample(1.5, 1.0, 60, 2);
    const stats::TestResult res = stats::mann_whitney_u(a, b);
    EXPECT_LT(res.p_value, 1e-6);
    EXPECT_LT(res.z, 0.0); // a has lower ranks -> negative z for U_a below mean
}

TEST(MannWhitney, IdenticalDistributionsAreNotSignificant) {
    const auto a = normal_sample(0.0, 1.0, 80, 3);
    const auto b = normal_sample(0.0, 1.0, 80, 4);
    const stats::TestResult res = stats::mann_whitney_u(a, b);
    EXPECT_GT(res.p_value, 0.05);
}

TEST(MannWhitney, AllTiedValuesGiveP1) {
    const std::vector<double> a = {1.0, 1.0, 1.0};
    const std::vector<double> b = {1.0, 1.0, 1.0, 1.0};
    const stats::TestResult res = stats::mann_whitney_u(a, b);
    EXPECT_DOUBLE_EQ(res.p_value, 1.0);
    EXPECT_DOUBLE_EQ(res.z, 0.0);
}

TEST(MannWhitney, UStatisticSymmetry) {
    const auto a = normal_sample(0.0, 1.0, 30, 5);
    const auto b = normal_sample(0.2, 1.0, 40, 6);
    const stats::TestResult ab = stats::mann_whitney_u(a, b);
    const stats::TestResult ba = stats::mann_whitney_u(b, a);
    // U_a + U_b = n * m.
    EXPECT_NEAR(ab.statistic + ba.statistic, 30.0 * 40.0, 1e-9);
    EXPECT_NEAR(ab.p_value, ba.p_value, 1e-9);
}

TEST(Ks, ShiftedSamplesAreSignificant) {
    const auto a = normal_sample(0.0, 1.0, 100, 7);
    const auto b = normal_sample(1.0, 1.0, 100, 8);
    const stats::TestResult res = stats::kolmogorov_smirnov(a, b);
    EXPECT_GT(res.statistic, 0.3);
    EXPECT_LT(res.p_value, 1e-4);
}

TEST(Ks, IdenticalSamplesGiveDZero) {
    const std::vector<double> xs = {1.0, 2.0, 3.0};
    const stats::TestResult res = stats::kolmogorov_smirnov(xs, xs);
    EXPECT_DOUBLE_EQ(res.statistic, 0.0);
    EXPECT_NEAR(res.p_value, 1.0, 1e-9);
}

TEST(Ks, DisjointSamplesGiveDOne) {
    const std::vector<double> a = {1.0, 2.0};
    const std::vector<double> b = {10.0, 20.0};
    const stats::TestResult res = stats::kolmogorov_smirnov(a, b);
    EXPECT_DOUBLE_EQ(res.statistic, 1.0);
}

TEST(CliffsDelta, KnownValues) {
    const std::vector<double> a = {1.0, 2.0};
    const std::vector<double> b = {3.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::cliffs_delta(a, b), 1.0);  // a always smaller
    EXPECT_DOUBLE_EQ(stats::cliffs_delta(b, a), -1.0); // reversed
    EXPECT_DOUBLE_EQ(stats::cliffs_delta(a, a), 0.0);  // symmetric ties
}

TEST(CliffsDelta, PartialOverlap) {
    const std::vector<double> a = {1.0, 3.0};
    const std::vector<double> b = {2.0, 4.0};
    // pairs: (1<2),(1<4),(3>2),(3<4) -> (3 - 1) / 4 = 0.5
    EXPECT_DOUBLE_EQ(stats::cliffs_delta(a, b), 0.5);
}

TEST(Hypothesis, EmptyInputsThrow) {
    const std::vector<double> empty;
    const std::vector<double> xs = {1.0};
    EXPECT_THROW((void)stats::mann_whitney_u(empty, xs), relperf::InvalidArgument);
    EXPECT_THROW((void)stats::kolmogorov_smirnov(xs, empty), relperf::InvalidArgument);
    EXPECT_THROW((void)stats::cliffs_delta(empty, xs), relperf::InvalidArgument);
}
