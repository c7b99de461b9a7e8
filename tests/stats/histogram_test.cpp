#include "stats/histogram.hpp"

#include "stats/rng.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace stats = relperf::stats;

TEST(Histogram, CountsFallIntoCorrectBins) {
    const std::vector<double> xs = {0.1, 0.1, 0.6, 1.4, 1.9};
    const stats::Histogram h(xs, 0.0, 2.0, 4); // bins of width 0.5
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(2), 1u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, OutOfRangeValuesClampToEdgeBins) {
    const std::vector<double> xs = {-5.0, 10.0, 1.0};
    const stats::Histogram h(xs, 0.0, 2.0, 2);
    EXPECT_EQ(h.count(0), 1u); // -5 clamped low
    EXPECT_EQ(h.count(1), 2u); // 10 clamped high, 1.0 in upper half
}

TEST(Histogram, TopEdgeBelongsToLastBin) {
    const std::vector<double> xs = {2.0};
    const stats::Histogram h(xs, 0.0, 2.0, 4);
    EXPECT_EQ(h.count(3), 1u);
}

TEST(Histogram, BinCentersAreMidpoints) {
    const std::vector<double> xs = {0.5};
    const stats::Histogram h(xs, 0.0, 4.0, 4);
    EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
    EXPECT_DOUBLE_EQ(h.bin_center(3), 3.5);
}

TEST(Histogram, AutomaticHandlesDegenerateSample) {
    const std::vector<double> xs = {3.0, 3.0, 3.0};
    const stats::Histogram h = stats::Histogram::automatic(xs);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_GE(h.bin_count(), 1u);
}

TEST(Histogram, FdBinCountGrowsWithSampleSize) {
    stats::Rng rng(7);
    std::vector<double> small;
    std::vector<double> large;
    for (int i = 0; i < 3000; ++i) {
        const double x = rng.normal(0.0, 1.0);
        if (i < 100) small.push_back(x);
        large.push_back(x);
    }
    const std::size_t bins_small = stats::Histogram::fd_bin_count(small, -4, 4);
    const std::size_t bins_large = stats::Histogram::fd_bin_count(large, -4, 4);
    EXPECT_GT(bins_large, bins_small);
}

TEST(Histogram, InvalidArgumentsThrow) {
    const std::vector<double> xs = {1.0};
    const std::vector<double> empty;
    EXPECT_THROW(stats::Histogram(empty, 0, 1, 4), relperf::InvalidArgument);
    EXPECT_THROW(stats::Histogram(xs, 0, 1, 0), relperf::InvalidArgument);
    EXPECT_THROW(stats::Histogram(xs, 1, 1, 4), relperf::InvalidArgument);
    const stats::Histogram h(xs, 0, 1, 2);
    EXPECT_THROW((void)h.count(2), relperf::InvalidArgument);
}

TEST(Histogram, AsciiRenderShowsBarsAndCounts) {
    const std::vector<double> xs = {0.25, 0.25, 0.75};
    const stats::Histogram h(xs, 0.0, 1.0, 2);
    const std::string out = h.render_ascii(10, "title");
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("##########"), std::string::npos); // peak bin full width
    EXPECT_NE(out.find("(2)"), std::string::npos);
    EXPECT_NE(out.find("(1)"), std::string::npos);
}
