//! Failure injection and adversarial behaviour of the clustering machinery:
//! the methodology must stay well-defined when comparators are inconsistent,
//! intransitive, hostile, or broken.

#include "core/clustering.hpp"
#include "core/threeway_sort.hpp"
#include "support/error.hpp"
#include "rank_invariant.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

namespace core = relperf::core;
using core::Ordering;
using relperf::stats::Rng;

namespace {

core::MeasurementSet tiny_set(std::size_t p) {
    core::MeasurementSet set;
    for (std::size_t i = 0; i < p; ++i) {
        set.add("alg" + std::to_string(i),
                {1.0 + static_cast<double>(i), 1.0 + static_cast<double>(i)});
    }
    return set;
}

} // namespace

TEST(AdversarialSort, AlwaysWorseComparatorTerminatesWithValidLabels) {
    // Every comparison swaps: the sort must still terminate in p-1 passes
    // with a valid label vector (it degenerates to reversing segments).
    const core::ThreeWaySorter sorter(
        [](std::size_t, std::size_t) { return Ordering::Worse; });
    for (const std::size_t p : {2u, 3u, 5u, 9u}) {
        const core::RankedSequence result = sorter.sort(p);
        core::check_rank_invariant(result.ranks);
        std::vector<std::size_t> sorted = result.order;
        std::sort(sorted.begin(), sorted.end());
        for (std::size_t i = 0; i < p; ++i) EXPECT_EQ(sorted[i], i);
    }
}

TEST(AdversarialSort, IntransitiveCycleStillProducesValidClasses) {
    // Rock-paper-scissors: 0 beats 1, 1 beats 2, 2 beats 0. No consistent
    // total order exists; the procedure must still emit a legal labeling.
    const core::ThreeWaySorter sorter([](std::size_t a, std::size_t b) {
        if ((a + 1) % 3 == b) return Ordering::Better;
        if ((b + 1) % 3 == a) return Ordering::Worse;
        return Ordering::Equivalent;
    });
    const core::RankedSequence result = sorter.sort(3);
    core::check_rank_invariant(result.ranks);
    EXPECT_GE(result.cluster_count(), 1);
    EXPECT_LE(result.cluster_count(), 3);
}

TEST(AdversarialSort, FlippingComparatorKeepsInvariantOnEveryStep) {
    // A comparator whose answers alternate deterministically regardless of
    // the operands — maximal inconsistency between repeated comparisons.
    int counter = 0;
    const core::ThreeWaySorter sorter([&counter](std::size_t, std::size_t) {
        switch (counter++ % 3) {
            case 0: return Ordering::Better;
            case 1: return Ordering::Worse;
            default: return Ordering::Equivalent;
        }
    });
    std::vector<core::SortStep> trace;
    std::vector<std::size_t> order(7);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const core::RankedSequence result = sorter.sort_traced(order, trace);
    core::check_rank_invariant(result.ranks);
    for (const core::SortStep& step : trace) {
        core::check_rank_invariant(step.ranks_after);
    }
}

namespace {

/// Comparator that throws after a configurable number of comparisons. Its
/// budget is unsynchronised mutable state, so it clusters with one worker.
class FaultyComparator final : public core::Comparator {
public:
    explicit FaultyComparator(int budget) : budget_(budget) {}

    Ordering compare(std::span<const double> a, std::span<const double> b,
                     Rng&) const override {
        if (budget_-- <= 0) {
            throw std::runtime_error("comparator hardware fault");
        }
        const double ma = relperf::stats::mean(a);
        const double mb = relperf::stats::mean(b);
        if (ma == mb) return Ordering::Equivalent;
        return ma < mb ? Ordering::Better : Ordering::Worse;
    }

    std::string name() const override { return "faulty"; }

private:
    mutable int budget_;
};

} // namespace

TEST(FailureInjection, ComparatorExceptionPropagatesOutOfClusterer) {
    const FaultyComparator faulty(5);
    const core::RelativeClusterer clusterer(faulty, core::ClustererConfig{10, 1});
    EXPECT_THROW((void)clusterer.cluster(tiny_set(4)), std::runtime_error);
}

TEST(FailureInjection, ZeroBudgetFailsImmediately) {
    const FaultyComparator faulty(0);
    const core::RelativeClusterer clusterer(faulty, core::ClustererConfig{1, 1});
    EXPECT_THROW((void)clusterer.cluster(tiny_set(2)), std::runtime_error);
}

namespace {

/// Stateless comparator that throws whenever the caller's stream yields a
/// draw divisible by 64, naming that draw. Two runs throw the same message
/// exactly when the same comparison of the same repetition failed first.
/// It pauses before throwing, so a failing repetition stays in flight while
/// the other workers reach theirs and several failures really race.
class TrippingComparator final : public core::Comparator {
public:
    Ordering compare(std::span<const double> a, std::span<const double> b,
                     Rng& rng) const override {
        const std::uint64_t bits = rng.bits();
        if (bits % 64 == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            throw std::runtime_error("comparator tripped on draw " +
                                     std::to_string(bits));
        }
        const double ma = relperf::stats::mean(a);
        const double mb = relperf::stats::mean(b);
        if (ma == mb) return Ordering::Equivalent;
        return ma < mb ? Ordering::Better : Ordering::Worse;
    }

    std::string name() const override { return "tripping"; }
};

std::string cluster_error(const core::Comparator& comparator,
                          core::ClustererConfig config) {
    try {
        (void)core::RelativeClusterer(comparator, config).cluster(tiny_set(6));
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "no exception";
}

} // namespace

TEST(FailureInjection, WorkerExceptionMatchesSerial) {
    // An exception thrown on a worker thread must reach the caller (not
    // std::terminate), and it must be the one the serial loop throws first:
    // the lowest failing repetition's.
    const TrippingComparator tripping;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        SCOPED_TRACE("seed = " + std::to_string(seed));
        const std::string serial =
            cluster_error(tripping, core::ClustererConfig{40, seed, 1});
        ASSERT_NE(serial, "no exception");
        EXPECT_EQ(cluster_error(tripping, core::ClustererConfig{40, seed, 4}),
                  serial);
    }
}

TEST(FailureInjection, SufficientBudgetSucceeds) {
    // 3 algorithms, 1 repetition: exactly 3 comparisons.
    const FaultyComparator faulty(3);
    const core::RelativeClusterer clusterer(faulty, core::ClustererConfig{1, 1});
    const core::Clustering result = clusterer.cluster(tiny_set(3));
    EXPECT_EQ(result.cluster_count(), 3);
}

TEST(AdversarialClusterer, RandomComparatorScoresStayNormalized) {
    // A uniformly random comparator produces chaotic clusters, but the
    // per-algorithm scores must still sum to exactly 1.
    class RandomComparator final : public core::Comparator {
    public:
        Ordering compare(std::span<const double>, std::span<const double>,
                         Rng& rng) const override {
            const double u = rng.uniform();
            if (u < 1.0 / 3.0) return Ordering::Better;
            if (u < 2.0 / 3.0) return Ordering::Worse;
            return Ordering::Equivalent;
        }
        std::string name() const override { return "random"; }
    };

    const RandomComparator comparator;
    const core::RelativeClusterer clusterer(comparator,
                                            core::ClustererConfig{200, 31});
    const core::MeasurementSet set = tiny_set(6);
    const core::Clustering result = clusterer.cluster(set);
    for (std::size_t alg = 0; alg < set.size(); ++alg) {
        double total = 0.0;
        for (int rank = 1; rank <= result.cluster_count(); ++rank) {
            total += result.score_of(alg, rank);
        }
        EXPECT_NEAR(total, 1.0, 1e-12) << "alg " << alg;
    }
    // Every final assignment has a positive cumulated score.
    for (const core::FinalAssignment& fin : result.final_assignment) {
        EXPECT_GT(fin.score, 0.0);
        EXPECT_LE(fin.score, 1.0 + 1e-12);
    }
}
