#include "core/measurement.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

using relperf::core::MeasurementSet;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

} // namespace

TEST(MeasurementSet, AddAndLookup) {
    MeasurementSet set;
    EXPECT_TRUE(set.empty());
    const std::size_t a = set.add("algDD", {1.0, 2.0, 3.0});
    const std::size_t b = set.add("algAD", {0.5, 0.6});
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(set.size(), 2u);
    EXPECT_EQ(set.name(0), "algDD");
    EXPECT_EQ(set.name(1), "algAD");
    EXPECT_EQ(set.index_of("algAD"), 1u);
    EXPECT_TRUE(set.contains("algDD"));
    EXPECT_FALSE(set.contains("algXX"));
    EXPECT_EQ(set.samples(1).size(), 2u);
}

TEST(MeasurementSet, SummaryDelegatesToStats) {
    MeasurementSet set;
    set.add("a", {1.0, 2.0, 3.0});
    const auto s = set.summary(0);
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.mean, 2.0);
    EXPECT_DOUBLE_EQ(s.median, 2.0);
}

TEST(MeasurementSet, ExtendAppendsSamples) {
    MeasurementSet set;
    set.add("a", {1.0, 2.0});
    set.add("b", {5.0});
    const std::vector<double> more = {3.0, 4.0};
    set.extend(0, more);
    EXPECT_EQ(std::vector<double>(set.samples(0).begin(), set.samples(0).end()),
              (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
    EXPECT_EQ(set.samples(1).size(), 1u); // the other algorithm is untouched
    EXPECT_EQ(set.total_samples(), 5u);
    // Lookups stay correct after extension.
    EXPECT_EQ(set.index_of("a"), 0u);
    EXPECT_EQ(set.index_of("b"), 1u);
}

TEST(MeasurementSet, ReserveSamplesPreventsReallocationAcrossExtends) {
    // Callers that know the final budget (the adaptive cap, a cache
    // extension's target N) reserve once up front; every extend up to that
    // capacity must then append in place. The data pointer doubles as the
    // reallocation canary.
    MeasurementSet set;
    set.add("a", {1.0, 2.0});
    set.add("b", {9.0});
    set.reserve_samples(0, 64);
    const double* const data = set.samples(0).data();
    std::vector<double> batch(6, 0.5);
    while (set.samples(0).size() + batch.size() <= 64) {
        set.extend(0, batch);
        EXPECT_EQ(set.samples(0).data(), data)
            << "reallocated at " << set.samples(0).size() << " samples";
    }
    EXPECT_GT(set.samples(0).size(), 56u);
    // Values are untouched by the reservation and the extends.
    EXPECT_EQ(set.samples(0)[0], 1.0);
    EXPECT_EQ(set.samples(0)[1], 2.0);
    EXPECT_EQ(set.samples(0)[2], 0.5);
    EXPECT_EQ(set.samples(1).size(), 1u);
    // Out-of-range reservations validate like extend.
    EXPECT_THROW(set.reserve_samples(5, 8), relperf::InvalidArgument);
}

TEST(MeasurementSet, ExtendValidatesLikeAdd) {
    MeasurementSet set;
    set.add("a", {1.0});
    EXPECT_THROW(set.extend(1, std::vector<double>{1.0}),
                 relperf::InvalidArgument);
    EXPECT_THROW(set.extend(0, std::vector<double>{}),
                 relperf::InvalidArgument);
    EXPECT_THROW(set.extend(0, std::vector<double>{-1.0}),
                 relperf::InvalidArgument);
    EXPECT_THROW(set.extend(0, std::vector<double>{2.0, kInf}),
                 relperf::InvalidArgument);
    EXPECT_THROW(set.extend(0, std::vector<double>{kNaN}),
                 relperf::InvalidArgument);
    EXPECT_EQ(set.samples(0).size(), 1u); // failed extends change nothing
}

TEST(MeasurementSet, LookupsAreMapBackedAtScale) {
    // index_of/contains sit inside the merge path, called once per algorithm
    // over campaigns of up to 65536 algorithms — a linear scan there is
    // O(n^2). This stays comfortably fast with the name -> index map (and
    // functions as a regression canary if someone reverts to scanning).
    MeasurementSet set;
    constexpr std::size_t kCount = 4096;
    for (std::size_t i = 0; i < kCount; ++i) {
        set.add("alg" + std::to_string(i), {1.0});
    }
    for (std::size_t i = 0; i < kCount; ++i) {
        const std::string name = "alg" + std::to_string(i);
        ASSERT_TRUE(set.contains(name));
        ASSERT_EQ(set.index_of(name), i);
    }
    EXPECT_FALSE(set.contains("alg" + std::to_string(kCount)));
}

TEST(MeasurementSet, InvalidInputsThrow) {
    MeasurementSet set;
    EXPECT_THROW(set.add("", {1.0}), relperf::InvalidArgument);
    EXPECT_THROW(set.add("a", {}), relperf::InvalidArgument);
    EXPECT_THROW(set.add("a", {-1.0}), relperf::InvalidArgument);
    // A non-finite sample has no order statistics to compare: +inf
    // quantiles interpolate to NaN, which the comparator counts as a loss.
    EXPECT_THROW(set.add("a", {1.0, kInf}), relperf::InvalidArgument);
    EXPECT_THROW(set.add("a", {kNaN}), relperf::InvalidArgument);
    EXPECT_FALSE(set.contains("a"));
    set.add("a", {1.0});
    EXPECT_THROW(set.add("a", {2.0}), relperf::InvalidArgument);
    EXPECT_THROW((void)set.at(5), relperf::InvalidArgument);
    EXPECT_THROW((void)set.index_of("missing"), relperf::InvalidArgument);
}
