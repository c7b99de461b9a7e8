#include "core/bootstrap_comparator.hpp"

#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace core = relperf::core;
using core::BootstrapComparator;
using core::BootstrapComparatorConfig;
using core::Ordering;
using relperf::stats::Rng;

namespace {

std::vector<double> lognormal_sample(double median, double sigma, int n,
                                     std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i) out.push_back(median * rng.lognormal(0.0, sigma));
    return out;
}

/// n values around `median`; `tied` rounds them to a 0.05 grid, so most
/// values repeat.
std::vector<double> oracle_sample(std::size_t n, double median, bool tied,
                                  std::uint64_t seed) {
    std::vector<double> xs =
        lognormal_sample(median, 0.1, static_cast<int>(n), seed);
    if (tied) {
        for (double& x : xs) x = std::round(x * 20.0) / 20.0;
    }
    return xs;
}

/// Quantile ranges the oracle tests run: degenerate at both ends and in the
/// middle, the widest, and the default.
constexpr std::pair<double, double> kQuantileRanges[] = {
    {0.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}, {0.5, 0.5}, {0.35, 0.65}};
/// Tie bands the oracle tests run: none, and the default.
constexpr double kTieBands[] = {0.0, 0.02};

/// The comparator as specified: per round, resample a then b (drawing every
/// index from `rng` in order), draw the quantile, sort both resamples and
/// read the quantile off the sorted copies.
double oracle_score(const BootstrapComparatorConfig& cfg,
                    std::span<const double> a, std::span<const double> b,
                    Rng& rng) {
    std::vector<double> res_a;
    std::vector<double> res_b;
    long wins_a = 0;
    long wins_b = 0;
    for (std::size_t r = 0; r < cfg.rounds; ++r) {
        relperf::stats::resample(a, a.size(), rng, res_a);
        relperf::stats::resample(b, b.size(), rng, res_b);
        std::sort(res_a.begin(), res_a.end());
        std::sort(res_b.begin(), res_b.end());
        const double q = rng.uniform(cfg.quantile_lo, cfg.quantile_hi);
        const double qa = relperf::stats::quantile_sorted(res_a, q);
        const double qb = relperf::stats::quantile_sorted(res_b, q);
        const double band = cfg.tie_epsilon * std::min(std::fabs(qa), std::fabs(qb));
        if (std::fabs(qa - qb) <= band) continue;
        if (qa < qb) {
            ++wins_a;
        } else {
            ++wins_b;
        }
    }
    return static_cast<double>(wins_a - wins_b) / static_cast<double>(cfg.rounds);
}

} // namespace

TEST(BootstrapComparator, ClearlyFasterWins) {
    const auto fast = lognormal_sample(1.0, 0.05, 50, 1);
    const auto slow = lognormal_sample(2.0, 0.05, 50, 2);
    const BootstrapComparator cmp;
    Rng rng(3);
    EXPECT_EQ(cmp.compare(fast, slow, rng), Ordering::Better);
    EXPECT_EQ(cmp.compare(slow, fast, rng), Ordering::Worse);
}

TEST(BootstrapComparator, IdenticalSamplesAreEquivalent) {
    const auto xs = lognormal_sample(1.0, 0.1, 60, 4);
    const BootstrapComparator cmp;
    Rng rng(5);
    EXPECT_EQ(cmp.compare(xs, xs, rng), Ordering::Equivalent);
}

TEST(BootstrapComparator, HeavilyOverlappingSamplesAreEquivalent) {
    // 0.3% median difference, 10% spread: far inside the tie band.
    const auto a = lognormal_sample(1.000, 0.10, 100, 6);
    const auto b = lognormal_sample(1.003, 0.10, 100, 7);
    const BootstrapComparator cmp;
    Rng rng(8);
    EXPECT_EQ(cmp.compare(a, b, rng), Ordering::Equivalent);
}

TEST(BootstrapComparator, ScoreIsBoundedAndSigned) {
    const auto fast = lognormal_sample(1.0, 0.05, 50, 9);
    const auto slow = lognormal_sample(1.5, 0.05, 50, 10);
    const BootstrapComparator cmp;
    Rng rng(11);
    const double s_fast = cmp.score(fast, slow, rng);
    const double s_slow = cmp.score(slow, fast, rng);
    EXPECT_GT(s_fast, 0.9);
    EXPECT_LE(s_fast, 1.0);
    EXPECT_LT(s_slow, -0.9);
    EXPECT_GE(s_slow, -1.0);
}

TEST(BootstrapComparator, AntisymmetryProperty) {
    // The two directions are evaluated with independent bootstrap draws, so
    // borderline pairs may legitimately flip between Equivalent and a
    // direction. The hard invariants: the directions never BOTH claim a win,
    // and clearly-separated pairs reverse exactly.
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng gen(seed);
        const double shift = gen.uniform(0.9, 1.15);
        const auto a = lognormal_sample(1.0, 0.08, 30, 100 + seed);
        const auto b = lognormal_sample(shift, 0.08, 30, 200 + seed);
        const BootstrapComparator cmp;
        Rng r1(300 + seed);
        Rng r2(301 + seed);
        const Ordering ab = cmp.compare(a, b, r1);
        const Ordering ba = cmp.compare(b, a, r2);
        EXPECT_FALSE(ab == Ordering::Better && ba == Ordering::Better);
        EXPECT_FALSE(ab == Ordering::Worse && ba == Ordering::Worse);
        if (shift > 1.10) {
            EXPECT_EQ(ab, Ordering::Better) << "seed " << seed;
            EXPECT_EQ(ba, Ordering::Worse) << "seed " << seed;
        }
    }
}

TEST(BootstrapComparator, DeterministicGivenSeed) {
    const auto a = lognormal_sample(1.0, 0.1, 40, 12);
    const auto b = lognormal_sample(1.05, 0.1, 40, 13);
    const BootstrapComparator cmp;
    Rng r1(14);
    Rng r2(14);
    EXPECT_EQ(cmp.compare(a, b, r1), cmp.compare(a, b, r2));
}

TEST(BootstrapComparator, WiderTieBandMakesMorePairsEquivalent) {
    const auto a = lognormal_sample(1.00, 0.02, 60, 15);
    const auto b = lognormal_sample(1.08, 0.02, 60, 16);

    BootstrapComparatorConfig narrow;
    narrow.tie_epsilon = 0.0;
    BootstrapComparatorConfig wide;
    wide.tie_epsilon = 0.25;

    Rng r1(17);
    Rng r2(17);
    EXPECT_EQ(BootstrapComparator(narrow).compare(a, b, r1), Ordering::Better);
    EXPECT_EQ(BootstrapComparator(wide).compare(a, b, r2), Ordering::Equivalent);
}

TEST(BootstrapComparator, SmallSamplesBlurBorderlinePairs) {
    // ~6% apart with 8% noise: decisive at N = 500, not at N = 10.
    const auto big_a = lognormal_sample(1.00, 0.08, 500, 18);
    const auto big_b = lognormal_sample(1.06, 0.08, 500, 19);
    const BootstrapComparator cmp;
    Rng rng(20);
    EXPECT_EQ(cmp.compare(big_a, big_b, rng), Ordering::Better);

    // With N = 10, count equivalents across independent draws: should be
    // frequent (the comparator refuses to call a winner).
    int equivalents = 0;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        const auto small_a = lognormal_sample(1.00, 0.08, 10, 400 + seed);
        const auto small_b = lognormal_sample(1.06, 0.08, 10, 500 + seed);
        Rng r(600 + seed);
        if (cmp.compare(small_a, small_b, r) == Ordering::Equivalent) ++equivalents;
    }
    EXPECT_GE(equivalents, 8);
}

TEST(BootstrapComparator, EmptySamplesThrow) {
    const std::vector<double> empty;
    const std::vector<double> xs = {1.0, 2.0};
    const BootstrapComparator cmp;
    Rng rng(21);
    EXPECT_THROW((void)cmp.compare(empty, xs, rng), relperf::InvalidArgument);
    EXPECT_THROW((void)cmp.compare(xs, empty, rng), relperf::InvalidArgument);
}

TEST(BootstrapComparatorConfig, ValidationCatchesBadKnobs) {
    BootstrapComparatorConfig cfg;
    cfg.rounds = 0;
    EXPECT_THROW(BootstrapComparator{cfg}, relperf::InvalidArgument);
    cfg = {};
    cfg.quantile_lo = 0.7;
    cfg.quantile_hi = 0.3;
    EXPECT_THROW(BootstrapComparator{cfg}, relperf::InvalidArgument);
    cfg = {};
    cfg.tie_epsilon = -0.1;
    EXPECT_THROW(BootstrapComparator{cfg}, relperf::InvalidArgument);
    cfg = {};
    cfg.decision_threshold = 0.0;
    EXPECT_THROW(BootstrapComparator{cfg}, relperf::InvalidArgument);
    cfg = {};
    cfg.decision_threshold = 1.1;
    EXPECT_THROW(BootstrapComparator{cfg}, relperf::InvalidArgument);
    // Round counts are added and subtracted as signed integers, so they stop
    // at INT64_MAX / 2 (the cap itself is valid).
    const auto cap =
        static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max() / 2);
    for (const std::size_t rounds : {cap + 1, std::numeric_limits<std::size_t>::max()}) {
        cfg = {};
        cfg.rounds = rounds;
        try {
            (void)BootstrapComparator{cfg};
            ADD_FAILURE() << "rounds = " << rounds << " was accepted";
        } catch (const relperf::InvalidArgument& e) {
            EXPECT_NE(std::string(e.what()).find("rounds"), std::string::npos)
                << e.what();
        }
    }
    cfg = {};
    cfg.rounds = cap;
    EXPECT_NO_THROW(BootstrapComparator{cfg});
}

TEST(BootstrapComparator, CountingSelectMatchesResampleOracle) {
    // score() never materializes a resample; the oracle does, the way the
    // comparator is specified: copy each round's resamples, sort them, read
    // the quantile off the sorted copy. Both must give the same score bits
    // and leave the rng in the same state, across sample sizes (unequal
    // ones included), tied values, degenerate and wide quantile ranges, and
    // both tie bands. Up to 127 values tally in bytes, eight bins to a word:
    // 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 126 and 127 sit on word
    // edges. From 128 values the tally is 32-bit, and 128, 129 and 500 sit
    // on or past the edges of its select's 16-bin blocks. All pairs of sizes
    // mix the two tallies; 10 to 30 are the adaptive engine's sizes, 500 is
    // the paper's Fig. 1b size. One scratch serves every call, so stale
    // buffers from a larger sample must not leak into a smaller one.
    const std::size_t sizes[] = {1,  2,  3,  5,  7,  8,  9,   10,  15,  16,  17,  20,
                                 30, 31, 32, 33, 63, 64, 65, 100, 126, 127, 128, 129};
    constexpr std::size_t kSizes = std::size(sizes);
    core::BootstrapScratch scratch;
    std::size_t scores = 0;
    const auto expect_oracle_bits = [&](std::span<const double> a,
                                        std::span<const double> b,
                                        std::uint64_t seed) {
        for (const auto& [lo, hi] : kQuantileRanges) {
            for (const double epsilon : kTieBands) {
                BootstrapComparatorConfig cfg;
                cfg.rounds = 25;
                cfg.quantile_lo = lo;
                cfg.quantile_hi = hi;
                cfg.tie_epsilon = epsilon;
                SCOPED_TRACE(testing::Message()
                             << "seed " << seed << " na " << a.size() << " nb "
                             << b.size() << " q [" << lo << ", " << hi
                             << "] eps " << epsilon);
                Rng rng(seed + 7000);
                Rng rng_oracle(seed + 7000);
                const double got = BootstrapComparator(cfg).score(a, b, rng, scratch);
                const double want = oracle_score(cfg, a, b, rng_oracle);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                          std::bit_cast<std::uint64_t>(want))
                    << "score " << got << " vs oracle " << want;
                EXPECT_EQ(rng.bits(), rng_oracle.bits());
                ++scores;
            }
        }
    };
    for (std::uint64_t seed = 0; seed < 2 * kSizes * kSizes; ++seed) {
        const std::size_t na = sizes[seed % kSizes];
        const std::size_t nb = sizes[(seed / kSizes) % kSizes];
        const bool tied = seed >= kSizes * kSizes;
        const auto a = oracle_sample(na, 1.0, tied, seed * 2 + 1);
        const auto b = oracle_sample(nb, 1.03, tied, seed * 2 + 2);
        expect_oracle_bits(a, b, seed);
    }
    for (std::uint64_t seed = 0; seed < 2; ++seed) {
        const bool tied = seed == 1;
        const auto a = oracle_sample(500, 1.0, tied, seed * 2 + 8001);
        const auto b = oracle_sample(500, 1.03, tied, seed * 2 + 8002);
        expect_oracle_bits(a, b, seed + 8000);
    }
    // Spans holding +inf, which a MeasurementSet rejects, go straight to
    // score(): an order statistic at +inf makes the interpolated quantile
    // +inf or NaN, and a round with a NaN quantile counts for b.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (std::uint64_t seed = 0; seed < 3 * kSizes; ++seed) {
        auto a = oracle_sample(sizes[seed % kSizes], 1.0, false, seed + 9001);
        auto b = oracle_sample(sizes[(seed + 5) % kSizes], 1.03, false, seed + 9002);
        switch (seed / kSizes) {
        case 0: // every third value of a
            for (std::size_t i = 0; i < a.size(); i += 3) a[i] = kInf;
            break;
        case 1: // the second half of b's values
            std::fill(b.begin() + static_cast<std::ptrdiff_t>(b.size() / 2),
                      b.end(), kInf);
            break;
        default: // a is all +inf, and b is a copy of a
            std::fill(a.begin(), a.end(), kInf);
            b = a;
            // Every round's quantiles are NaN, or +inf on both sides when
            // n = 1, and neither is a tie: a loses every round to itself.
            Rng rng(seed);
            EXPECT_EQ(BootstrapComparator{}.score(a, b, rng), -1.0);
            break;
        }
        expect_oracle_bits(a, b, seed + 5000);
    }
    EXPECT_EQ(scores, 12260u);
}

TEST(BootstrapComparator, CompareEqualsThresholdedScore) {
    // compare() stops tallying once the rounds left cannot move its verdict,
    // but still makes their draws. So it must return score() thresholded at
    // decision_threshold and leave the rng where score() leaves it, and
    // score() must equal the resampling oracle's bits. The thresholds next
    // to 0.9 and 0.1 + 0.2 put a net win count on or just past a cut point,
    // where cut points computed in integer arithmetic rather than from the
    // predicate go wrong: ceil(0.9 * rounds) at most round counts,
    // floor(t * rounds) + 1 at 10 rounds for the threshold just below 0.9.
    // Every quantile range and tie band of the oracle test runs too: the
    // round loop reads quantile_lo and quantile_hi - quantile_lo once per
    // call and shares one quantile position between samples of equal size,
    // and only the range [1, 1] reaches the hi = n - 1 clamp.
    // 127 values tally in bytes and 128 in 32-bit counts: both settle.
    const std::size_t sizes[] = {1, 2, 3, 10, 30, 31, 127, 128};
    constexpr std::size_t kSizes = std::size(sizes);
    const double shifts[] = {1.0, 1.03, 1.3, 0.7};
    const std::size_t round_counts[] = {1, 2, 7, 10, 25, 100};
    const double thresholds[] = {0.9,
                                 1.0,
                                 0.5,
                                 0.1 + 0.2,
                                 std::nextafter(0.9, 1.0),
                                 std::nextafter(0.9, 0.0)};
    const auto thresholded = [](double s, double t) {
        if (s > t) return Ordering::Better;
        if (s < -t) return Ordering::Worse;
        return Ordering::Equivalent;
    };
    int seen[3] = {0, 0, 0};
    std::size_t cases = 0;
    // Each size pair runs once. Tied values alternate along a's size and
    // every second b size, so that equal sizes meet both (2, 3, 31 and 127
    // tied), and the four shifts rotate across them.
    for (std::uint64_t seed = 0; seed < kSizes * kSizes; ++seed) {
        const std::size_t na = sizes[seed % kSizes];
        const std::size_t nb = sizes[seed / kSizes];
        const bool tied = (seed + seed / kSizes / 2) % 2 == 1;
        const double shift = shifts[(seed / 3) % 4];
        const auto a = oracle_sample(na, 1.0, tied, seed * 2 + 1);
        const auto b = oracle_sample(nb, shift, tied, seed * 2 + 2);
        // Every seventh case compares a with itself, through one span.
        const bool same = seed % 7 == 6;
        const std::span<const double> first(a);
        const std::span<const double> second = same ? first : std::span<const double>(b);
        for (const std::size_t rounds : round_counts) {
            for (const auto& [lo, hi] : kQuantileRanges) {
                for (const double epsilon : kTieBands) {
                    BootstrapComparatorConfig cfg;
                    cfg.rounds = rounds;
                    cfg.quantile_lo = lo;
                    cfg.quantile_hi = hi;
                    cfg.tie_epsilon = epsilon;
                    SCOPED_TRACE(testing::Message()
                                 << "seed " << seed << " na " << na << " nb "
                                 << (same ? na : nb) << " same " << same
                                 << " rounds " << rounds << " q [" << lo << ", "
                                 << hi << "] eps " << epsilon);
                    Rng rng_score(seed + 9000);
                    const double score =
                        BootstrapComparator(cfg).score(first, second, rng_score);
                    // The oracle sorts every resample, so it runs up to 25
                    // rounds; 100 rounds take the same round loop.
                    if (rounds <= 25) {
                        Rng rng_oracle(seed + 9000);
                        const double want = oracle_score(cfg, first, second, rng_oracle);
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(score),
                                  std::bit_cast<std::uint64_t>(want))
                            << "score " << score << " vs oracle " << want;
                        Rng after_score = rng_score;
                        EXPECT_EQ(after_score.bits(), rng_oracle.bits());
                    }
                    for (const double t : thresholds) {
                        cfg.decision_threshold = t;
                        SCOPED_TRACE(testing::Message()
                                     << "threshold " << testing::PrintToString(t));
                        Rng rng_compare(seed + 9000);
                        const Ordering got =
                            BootstrapComparator(cfg).compare(first, second, rng_compare);
                        EXPECT_EQ(got, thresholded(score, t));
                        Rng after_score = rng_score;
                        EXPECT_EQ(rng_compare.bits(), after_score.bits());
                        ++seen[static_cast<int>(got)];
                        ++cases;
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, kSizes * kSizes * std::size(round_counts) *
                         std::size(kQuantileRanges) * std::size(kTieBands) *
                         std::size(thresholds));
    // The inputs reach every verdict, so each cut point is exercised.
    EXPECT_GT(seen[static_cast<int>(Ordering::Better)], 0);
    EXPECT_GT(seen[static_cast<int>(Ordering::Worse)], 0);
    EXPECT_GT(seen[static_cast<int>(Ordering::Equivalent)], 0);
}

TEST(BootstrapComparator, CallerOwnedScratchMatchesThreadLocalPath) {
    const BootstrapComparator cmp(BootstrapComparatorConfig{});
    const auto all_zero = [](const auto& tally) {
        return std::all_of(tally.begin(), tally.end(), [](auto c) { return c == 0; });
    };
    const auto expect_clean = [&](const core::BootstrapScratch& used) {
        EXPECT_TRUE(all_zero(used.a.byte_counts));
        EXPECT_TRUE(all_zero(used.b.byte_counts));
        EXPECT_TRUE(all_zero(used.a.counts));
        EXPECT_TRUE(all_zero(used.b.counts));
    };
    // 25 values tally in bytes and 200 in 32-bit counts. Per size: a clean
    // scratch, reused (stale contents), then a dirty one, whose tallies are
    // all non-zero, a's longer than either size needs and b's longer than
    // the byte tally of 25 values needs. Each call zeroes the tally it uses
    // and empties the other, and every select clears what it read, so the
    // scores and rng states agree and both tallies are all zero after each
    // call.
    int call = 0;
    for (const int n : {25, 200}) {
        const auto a = lognormal_sample(1.0, 0.2, n, 7);
        const auto b = lognormal_sample(1.1, 0.2, n, 8);
        core::BootstrapScratch scratch;
        core::BootstrapScratch dirty;
        dirty.a.byte_counts.assign(264, 7);
        dirty.b.byte_counts.assign(40, 3);
        dirty.a.counts.assign(264, 7);
        dirty.b.counts.assign(40, 3);
        for (int i = 0; i < 4; ++i, ++call) {
            SCOPED_TRACE(testing::Message() << "n " << n << " call " << call);
            core::BootstrapScratch& used = i < 3 ? scratch : dirty;
            Rng rng_plain(42 + call);
            Rng rng_scratch(42 + call);
            EXPECT_EQ(cmp.score(a, b, rng_plain), cmp.score(a, b, rng_scratch, used));
            EXPECT_EQ(rng_plain.bits(), rng_scratch.bits());
            expect_clean(used);
        }
    }
    // At the switch both tallies give the same bits, so only the scratch
    // shows which one a size took: 127 values fill 16 words of bytes, and
    // 128 values take 32-bit counts.
    core::BootstrapScratch scratch;
    for (const int n : {127, 128, 127}) {
        SCOPED_TRACE(testing::Message() << "n " << n);
        const auto a = lognormal_sample(1.0, 0.2, n, 9);
        Rng rng(n);
        (void)cmp.score(a, a, rng, scratch);
        EXPECT_EQ(scratch.a.byte_counts.size(), n == 127 ? 128u : 0u);
        EXPECT_EQ(scratch.a.counts.size(), n == 127 ? 0u : 128u);
        expect_clean(scratch);
    }
    // A one-value sample never reads its bin, but clears it all the same.
    const std::vector<double> single = {1.0};
    const auto b = lognormal_sample(1.1, 0.2, 25, 8);
    Rng rng(7);
    (void)cmp.score(single, b, rng, scratch);
    EXPECT_EQ(scratch.a.byte_counts.size(), 8u);
    expect_clean(scratch);
}

TEST(BootstrapComparator, NameIsStable) {
    EXPECT_EQ(BootstrapComparator{}.name(), "bootstrap");
}
