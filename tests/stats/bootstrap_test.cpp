#include "stats/bootstrap.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace stats = relperf::stats;

TEST(Resample, ProducesRequestedSizeFromSourceValues) {
    const std::vector<double> xs = {1.0, 2.0, 3.0};
    stats::Rng rng(1);
    const std::vector<double> r = stats::resample(xs, 10, rng);
    ASSERT_EQ(r.size(), 10u);
    for (const double v : r) {
        EXPECT_TRUE(v == 1.0 || v == 2.0 || v == 3.0);
    }
}

TEST(Resample, IsSeedDeterministic) {
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    stats::Rng a(42);
    stats::Rng b(42);
    EXPECT_EQ(stats::resample(xs, 20, a), stats::resample(xs, 20, b));
}

TEST(Resample, EventuallyDrawsEveryElement) {
    const std::vector<double> xs = {1.0, 2.0, 3.0};
    stats::Rng rng(7);
    const std::vector<double> r = stats::resample(xs, 1000, rng);
    for (const double v : xs) {
        EXPECT_NE(std::find(r.begin(), r.end(), v), r.end());
    }
}

TEST(Resample, InvalidInputsThrow) {
    const std::vector<double> empty;
    const std::vector<double> xs = {1.0};
    stats::Rng rng(1);
    EXPECT_THROW((void)stats::resample(empty, 5, rng), relperf::InvalidArgument);
    EXPECT_THROW((void)stats::resample(xs, 0, rng), relperf::InvalidArgument);
}
