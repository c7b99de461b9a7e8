#include "stats/descriptive.hpp"

#include "stats/rng.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace stats = relperf::stats;

TEST(RunningStats, MatchesDirectComputation) {
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    stats::RunningStats acc;
    for (const double x : xs) acc.add(x);
    EXPECT_EQ(acc.count(), xs.size());
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12); // unbiased
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Descriptive, MeanAndVariance) {
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
    EXPECT_NEAR(stats::summarize(xs).stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Descriptive, EmptyInputThrows) {
    const std::vector<double> empty;
    EXPECT_THROW((void)stats::mean(empty), relperf::InvalidArgument);
    EXPECT_THROW((void)stats::median(empty), relperf::InvalidArgument);
    EXPECT_THROW((void)stats::summarize(empty), relperf::InvalidArgument);
}

// Type-7 quantile references computed with numpy.quantile (default method).
TEST(Quantile, MatchesNumpyType7) {
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
    EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.25), 2.0);
    EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.75), 4.0);
    EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 10.0);
    EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.1), 1.4);
    EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.9), 7.6);
}

TEST(Quantile, SingleElement) {
    const std::vector<double> xs = {5.0};
    EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 5.0);
    EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 5.0);
}

TEST(Quantile, UnsortedInputToSortedFunctionThrows) {
    const std::vector<double> xs = {3.0, 1.0, 2.0};
    EXPECT_THROW((void)stats::quantile_sorted(xs, 0.5), relperf::InvalidArgument);
}

TEST(Quantile, OutOfRangePThrows) {
    const std::vector<double> xs = {1.0, 2.0};
    EXPECT_THROW((void)stats::quantile(xs, -0.1), relperf::InvalidArgument);
    EXPECT_THROW((void)stats::quantile(xs, 1.1), relperf::InvalidArgument);
}

class QuantileMonotonicity : public testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileMonotonicity, QuantileIsMonotoneInP) {
    stats::Rng rng(GetParam());
    std::vector<double> xs;
    for (int i = 0; i < 57; ++i) xs.push_back(rng.lognormal(0.0, 1.0));
    const std::vector<double> sorted = stats::sorted_copy(xs);
    double prev = -1.0;
    for (double p = 0.0; p <= 1.0; p += 0.05) {
        const double q = stats::quantile_sorted(sorted, p);
        EXPECT_GE(q, prev);
        prev = q;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotonicity,
                         testing::Values(1, 2, 3, 10, 99, 12345));

TEST(Median, EvenAndOddCounts) {
    EXPECT_DOUBLE_EQ(stats::median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(stats::median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Summarize, AllFieldsPopulated) {
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
    const stats::Summary s = stats::summarize(xs);
    EXPECT_EQ(s.count, 8u);
    EXPECT_DOUBLE_EQ(s.mean, 4.5);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 8.0);
    EXPECT_DOUBLE_EQ(s.median, 4.5);
    EXPECT_DOUBLE_EQ(s.q25, 2.75);
    EXPECT_DOUBLE_EQ(s.q75, 6.25);
    EXPECT_GT(s.stddev, 0.0);
    EXPECT_NEAR(s.cv, s.stddev / s.mean, 1e-15);
}

TEST(NormalQuantile, PinsTextbookCriticalValues) {
    // Abramowitz & Stegun 26.2.3-grade values, pinned to 1e-9 (the Acklam
    // approximation plus one Halley refinement is good to ~1e-15).
    EXPECT_NEAR(stats::normal_quantile(0.5), 0.0, 1e-12);
    EXPECT_NEAR(stats::normal_quantile(0.8), 0.8416212335729143, 1e-9);
    EXPECT_NEAR(stats::normal_quantile(0.95), 1.6448536269514722, 1e-9);
    EXPECT_NEAR(stats::normal_quantile(0.975), 1.959963984540054, 1e-9);
    EXPECT_NEAR(stats::normal_quantile(0.999), 3.090232306167814, 1e-9);
}

TEST(NormalQuantile, SymmetricAndMonotone) {
    for (const double p : {0.6, 0.75, 0.9, 0.99, 0.9999}) {
        EXPECT_NEAR(stats::normal_quantile(1.0 - p), -stats::normal_quantile(p),
                    1e-9);
    }
    double previous = stats::normal_quantile(0.01);
    for (double p = 0.02; p < 1.0; p += 0.01) {
        const double q = stats::normal_quantile(p);
        EXPECT_GT(q, previous) << "p = " << p;
        previous = q;
    }
}

TEST(NormalQuantile, RejectsOutOfRangeProbabilities) {
    EXPECT_THROW((void)stats::normal_quantile(0.0), relperf::InvalidArgument);
    EXPECT_THROW((void)stats::normal_quantile(1.0), relperf::InvalidArgument);
    EXPECT_THROW((void)stats::normal_quantile(-0.5), relperf::InvalidArgument);
    EXPECT_THROW((void)stats::normal_quantile(1.5), relperf::InvalidArgument);
}
