#include "stats/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

using relperf::stats::Rng;
using relperf::stats::SplitMix64;
using relperf::stats::Xoshiro256pp;

TEST(SplitMix64, KnownSequenceFromSeedZero) {
    // Reference values from the published splitmix64 algorithm.
    SplitMix64 sm(0);
    EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

// Known values for the hot draws (the generator step, uniform ranges and
// bounded indices). Every bootstrap score, and so every golden clustering,
// depends on these exact streams.
TEST(Xoshiro, KnownSequenceFromSeedZero) {
    Xoshiro256pp gen(0);
    EXPECT_EQ(gen(), 0x53175d61490b23dfULL);
    EXPECT_EQ(gen(), 0x61da6f3dc380d507ULL);
    EXPECT_EQ(gen(), 0x5c0fdf91ec9a7bfcULL);
    EXPECT_EQ(gen(), 0x02eebf8c3bbe5e1aULL);
}

TEST(Rng, UniformIndexKnownValues) {
    Rng rng(42);
    for (const std::uint64_t expected : {24u, 9u, 29u, 21u, 23u, 17u}) {
        EXPECT_EQ(rng.uniform_index(30), expected);
    }
}

TEST(Rng, UniformIndexRejectionKnownValues) {
    // n = 2^63 + 1 rejects about half of the raw draws, so this pins the
    // rejection loop, including how many raw draws it consumes.
    Rng rng(42);
    const std::uint64_t n = (std::uint64_t{1} << 63) + 1;
    EXPECT_EQ(rng.uniform_index(n), 0x28cf20ba2bb79bc8ULL);
    EXPECT_EQ(rng.uniform_index(n), 0x7df03e7d861276c6ULL);
    EXPECT_EQ(rng.uniform_index(n), 0x59becfb0066c1adcULL);
    EXPECT_EQ(rng.uniform_index(n), 0x4d74a703876c65a3ULL);
    EXPECT_EQ(rng.bits(), 0x352cf3daf095ccc7ULL);
}

TEST(Rng, UniformKnownValues) {
    Rng unit(42);
    EXPECT_EQ(unit.uniform(), 0x1.a0ec9a9e88ecdp-1);
    EXPECT_EQ(unit.uniform(), 0x1.467905d15dbccp-2);
    Rng range(42);
    EXPECT_EQ(range.uniform(0.35, 0.65), 0x1.3046fb2f8f7a4p-1);
    EXPECT_EQ(range.uniform(0.35, 0.65), 0x1.c85781becf524p-2);
    EXPECT_EQ(range.uniform(0.35, 0.65), 0x1.4a537e303a7c9p-1);
    EXPECT_EQ(range.uniform(0.35, 0.65), 0x1.1ee4f939a14e8p-1);
}

TEST(Xoshiro, DeterministicForEqualSeeds) {
    Xoshiro256pp a(42);
    Xoshiro256pp b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
    Xoshiro256pp a(1);
    Xoshiro256pp b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIsInUnitInterval) {
    Rng rng(123);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.0, 3.0);
        EXPECT_GE(u, -2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
    Rng rng(99);
    constexpr std::uint64_t n = 10;
    std::vector<int> counts(n, 0);
    constexpr int draws = 100000;
    for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(n)];
    // Every bucket within 10% of the expected count (very loose, 5+ sigma).
    for (const int c : counts) {
        EXPECT_NEAR(c, draws / static_cast<int>(n), draws / static_cast<int>(n) / 10);
    }
}

TEST(Rng, UniformIndexZeroAndOne) {
    Rng rng(1);
    EXPECT_EQ(rng.uniform_index(0), 0u);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, NormalMomentsAreCorrect) {
    Rng rng(2024);
    constexpr int n = 200000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, LognormalMeanMatchesFormula) {
    Rng rng(77);
    const double sigma = 0.5;
    const double mu = -0.5 * sigma * sigma; // makes E[X] = 1
    double sum = 0.0;
    constexpr int n = 200000;
    for (int i = 0; i < n; ++i) sum += rng.lognormal(mu, sigma);
    EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(Rng, ParetoRespectsScaleAndMean) {
    Rng rng(13);
    const double xm = 1.0;
    const double alpha = 3.0;
    double sum = 0.0;
    constexpr int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.pareto(xm, alpha);
        EXPECT_GE(x, xm);
        sum += x;
    }
    // E[X] = alpha * xm / (alpha - 1) = 1.5.
    EXPECT_NEAR(sum / n, 1.5, 0.05);
}

TEST(Rng, BernoulliRateIsRespected) {
    Rng rng(8);
    const double p = 0.3;
    int hits = 0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i) hits += rng.bernoulli(p) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(Rng, ShuffleProducesPermutation) {
    Rng rng(44);
    std::vector<int> v(20);
    std::iota(v.begin(), v.end(), 0);
    rng.shuffle(v);
    std::vector<int> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ShuffleIsSeedDeterministic) {
    std::vector<int> a(50);
    std::vector<int> b(50);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), 0);
    Rng ra(9);
    Rng rb(9);
    ra.shuffle(a);
    rb.shuffle(b);
    EXPECT_EQ(a, b);
}

TEST(Rng, ChildStreamsAreIndependent) {
    const Rng parent(1234);
    Rng c0 = parent.child(0);
    Rng c1 = parent.child(1);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (c0.bits() == c1.bits()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, ChildIsDeterministic) {
    const Rng parent(1234);
    Rng a = parent.child(7);
    Rng b = parent.child(7);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(a.bits(), b.bits());
}
