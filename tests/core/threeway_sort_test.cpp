#include "core/threeway_sort.hpp"

#include "stats/rng.hpp"
#include "support/error.hpp"
#include "rank_invariant.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <utility>

namespace core = relperf::core;
using core::Ordering;
using core::RankedSequence;
using core::SortStep;
using core::ThreeWaySorter;

namespace {

/// Deterministic comparator over a fixed outcome table;
/// compare(a, b) for a key (a, b); the reverse direction is derived.
class TableComparator {
public:
    void set(std::size_t a, std::size_t b, Ordering outcome) {
        table_[{a, b}] = outcome;
        table_[{b, a}] = core::reverse(outcome);
    }

    Ordering operator()(std::size_t a, std::size_t b) const {
        const auto it = table_.find({a, b});
        RELPERF_REQUIRE(it != table_.end(), "TableComparator: unexpected pair");
        return it->second;
    }

private:
    std::map<std::pair<std::size_t, std::size_t>, Ordering> table_;
};

/// Strict total order by value: lower value wins.
core::ThreeWayCompare value_order(std::vector<double> values) {
    return [values = std::move(values)](std::size_t a, std::size_t b) {
        if (values[a] < values[b]) return Ordering::Better;
        if (values[a] > values[b]) return Ordering::Worse;
        return Ordering::Equivalent;
    };
}

} // namespace

// ---------------------------------------------------------------------------
// The paper's Figure 2, replayed verbatim.
//
// Algorithms (by the figure's labels): DD=0, AA=1, DA=2, AD=3.
// True relations (from Figure 1b):
//   AD better than everything; AA better than DD/DA; DD ~ DA.
// Initial sequence: <DD, AA, DA, AD> with ranks <1,2,3,4>.
// Expected final:   <(AD,1), (AA,2), (DD,3), (DA,3)>.
// ---------------------------------------------------------------------------
TEST(ThreeWaySort, PaperFigure2TraceVerbatim) {
    constexpr std::size_t DD = 0, AA = 1, DA = 2, AD = 3;
    TableComparator cmp;
    cmp.set(AD, AA, Ordering::Better);
    cmp.set(AD, DD, Ordering::Better);
    cmp.set(AD, DA, Ordering::Better);
    cmp.set(AA, DD, Ordering::Better);
    cmp.set(AA, DA, Ordering::Better);
    cmp.set(DD, DA, Ordering::Equivalent);

    const ThreeWaySorter sorter(cmp);
    std::vector<SortStep> trace;
    const RankedSequence result =
        sorter.sort_traced(std::vector<std::size_t>{DD, AA, DA, AD}, trace);

    // Final sequence set (paper Sec. III):
    // <(alg_AD, 1), (alg_AA, 2), (alg_DD, 3), (alg_DA, 3)>.
    ASSERT_EQ(result.order.size(), 4u);
    EXPECT_EQ(result.order, (std::vector<std::size_t>{AD, AA, DD, DA}));
    EXPECT_EQ(result.ranks, (std::vector<int>{1, 2, 3, 3}));
    EXPECT_EQ(result.cluster_count(), 3);

    // Step 1: DD vs AA -> DD worse, swap. Sequence <AA,DD,DA,AD>, ranks 1..4.
    ASSERT_GE(trace.size(), 4u);
    EXPECT_EQ(trace[0].left_alg, DD);
    EXPECT_EQ(trace[0].right_alg, AA);
    EXPECT_EQ(trace[0].outcome, Ordering::Worse);
    EXPECT_TRUE(trace[0].swapped);
    EXPECT_EQ(trace[0].order_after, (std::vector<std::size_t>{AA, DD, DA, AD}));
    EXPECT_EQ(trace[0].ranks_after, (std::vector<int>{1, 2, 3, 4}));

    // Step 2: DD vs DA -> equivalent; ranks of successors decrease:
    // DD and DA now share rank 2, AD corrected to rank 3.
    EXPECT_EQ(trace[1].left_alg, DD);
    EXPECT_EQ(trace[1].right_alg, DA);
    EXPECT_EQ(trace[1].outcome, Ordering::Equivalent);
    EXPECT_FALSE(trace[1].swapped);
    EXPECT_EQ(trace[1].ranks_after, (std::vector<int>{1, 2, 2, 3}));

    // Step 3: DA vs AD -> DA worse, swap; AD now shares rank 2 with its
    // predecessor DD but not with its successor DA: DA's rank decreases so
    // that DD, AD, DA all share rank 2.
    EXPECT_EQ(trace[2].left_alg, DA);
    EXPECT_EQ(trace[2].right_alg, AD);
    EXPECT_EQ(trace[2].outcome, Ordering::Worse);
    EXPECT_TRUE(trace[2].swapped);
    EXPECT_EQ(trace[2].order_after, (std::vector<std::size_t>{AA, DD, AD, DA}));
    EXPECT_EQ(trace[2].ranks_after, (std::vector<int>{1, 2, 2, 2}));

    // Pass 2, step 4 in the paper's numbering: AA vs DD -> better, no change.
    EXPECT_EQ(trace[3].left_alg, AA);
    EXPECT_EQ(trace[3].right_alg, DD);
    EXPECT_EQ(trace[3].outcome, Ordering::Better);
    EXPECT_FALSE(trace[3].swapped);

    // Step 5 ("step 4 of the illustration"): DD vs AD, same rank -> swap;
    // AD defeated all of its class: successors pushed to rank 3.
    ASSERT_GE(trace.size(), 6u);
    EXPECT_EQ(trace[4].left_alg, DD);
    EXPECT_EQ(trace[4].right_alg, AD);
    EXPECT_EQ(trace[4].outcome, Ordering::Worse);
    EXPECT_TRUE(trace[4].swapped);
    EXPECT_EQ(trace[4].order_after, (std::vector<std::size_t>{AA, AD, DD, DA}));
    EXPECT_EQ(trace[4].ranks_after, (std::vector<int>{1, 2, 3, 3}));

    // Final pass: AA vs AD -> AA worse, swap at the head; no rank update.
    const SortStep& last = trace.back();
    EXPECT_EQ(last.left_alg, AA);
    EXPECT_EQ(last.right_alg, AD);
    EXPECT_EQ(last.outcome, Ordering::Worse);
    EXPECT_TRUE(last.swapped);
    EXPECT_EQ(last.order_after, (std::vector<std::size_t>{AD, AA, DD, DA}));
    EXPECT_EQ(last.ranks_after, (std::vector<int>{1, 2, 3, 3}));
}

TEST(ThreeWaySort, StrictTotalOrderSortsAndSeparatesAllRanks) {
    const ThreeWaySorter sorter(value_order({5.0, 1.0, 4.0, 2.0, 3.0}));
    const RankedSequence result = sorter.sort(5);
    EXPECT_EQ(result.order, (std::vector<std::size_t>{1, 3, 4, 2, 0}));
    EXPECT_EQ(result.ranks, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(result.cluster_count(), 5);
}

TEST(ThreeWaySort, AllEquivalentCollapsesToOneCluster) {
    const ThreeWaySorter sorter(
        [](std::size_t, std::size_t) { return Ordering::Equivalent; });
    const RankedSequence result = sorter.sort(6);
    EXPECT_EQ(result.cluster_count(), 1);
    for (const int r : result.ranks) EXPECT_EQ(r, 1);
}

TEST(ThreeWaySort, SingleAlgorithmIsRankOne) {
    const ThreeWaySorter sorter(
        [](std::size_t, std::size_t) { return Ordering::Better; });
    const RankedSequence result = sorter.sort(1);
    EXPECT_EQ(result.order, (std::vector<std::size_t>{0}));
    EXPECT_EQ(result.ranks, (std::vector<int>{1}));
}

TEST(ThreeWaySort, TwoTiersMergeWithinTiers) {
    // Values: {0,1} fast tier (~1.0), {2,3} slow tier (~2.0); equal values
    // are equivalent.
    const ThreeWaySorter sorter(value_order({1.0, 1.0, 2.0, 2.0}));
    const RankedSequence result = sorter.sort(std::vector<std::size_t>{2, 0, 3, 1});
    EXPECT_EQ(result.cluster_count(), 2);
    EXPECT_EQ(result.rank_of(0), 1);
    EXPECT_EQ(result.rank_of(1), 1);
    EXPECT_EQ(result.rank_of(2), 2);
    EXPECT_EQ(result.rank_of(3), 2);
}

TEST(ThreeWaySort, ResultIsIndependentOfInitialOrderForTotalOrder) {
    const std::vector<double> values = {3.0, 1.0, 2.0, 5.0, 4.0};
    const ThreeWaySorter sorter(value_order(values));
    relperf::stats::Rng rng(7);
    std::vector<std::size_t> order(values.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const RankedSequence reference = sorter.sort(order);
    for (int trial = 0; trial < 20; ++trial) {
        rng.shuffle(order);
        const RankedSequence result = sorter.sort(order);
        EXPECT_EQ(result.order, reference.order);
        EXPECT_EQ(result.ranks, reference.ranks);
    }
}

// Property: the rank-label invariant holds after every step even under
// adversarial (random, inconsistent) comparators.
class SortInvariantProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SortInvariantProperty, RandomComparatorNeverBreaksInvariant) {
    relperf::stats::Rng rng(GetParam());
    const std::size_t p = 2 + static_cast<std::size_t>(rng.uniform_index(9));
    const ThreeWaySorter sorter([&rng](std::size_t, std::size_t) {
        const double u = rng.uniform();
        if (u < 1.0 / 3.0) return Ordering::Worse;
        if (u < 2.0 / 3.0) return Ordering::Equivalent;
        return Ordering::Better;
    });
    std::vector<SortStep> trace;
    std::vector<std::size_t> order(p);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const RankedSequence result = sorter.sort_traced(order, trace);

    // The final labels satisfy the invariant, and order is still a
    // permutation.
    core::check_rank_invariant(result.ranks);
    std::vector<std::size_t> sorted = result.order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < p; ++i) EXPECT_EQ(sorted[i], i);
    // Every step's labels satisfied the invariant too.
    for (const SortStep& step : trace) {
        core::check_rank_invariant(step.ranks_after);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortInvariantProperty,
                         testing::Range<std::uint64_t>(0, 50));

TEST(ThreeWaySort, RankedSequenceAccessors) {
    const ThreeWaySorter sorter(value_order({2.0, 1.0}));
    const RankedSequence result = sorter.sort(2);
    EXPECT_EQ(result.position_of(1), 0u);
    EXPECT_EQ(result.position_of(0), 1u);
    EXPECT_EQ(result.rank_of(1), 1);
    EXPECT_EQ(result.rank_of(0), 2);
    EXPECT_THROW((void)result.rank_of(9), relperf::InvalidArgument);
}

TEST(ThreeWaySort, InvalidInputsThrow) {
    const ThreeWaySorter sorter(
        [](std::size_t, std::size_t) { return Ordering::Equivalent; });
    EXPECT_THROW((void)sorter.sort(0), relperf::InvalidArgument);
    EXPECT_THROW((void)sorter.sort(std::vector<std::size_t>{0, 0}),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)sorter.sort(std::vector<std::size_t>{1, 2}),
                 relperf::InvalidArgument);
    EXPECT_THROW(ThreeWaySorter(core::ThreeWayCompare{}), relperf::InvalidArgument);
}

TEST(CheckRankInvariant, RejectsBadLabelVectors) {
    EXPECT_NO_THROW(core::check_rank_invariant({1, 1, 2, 3, 3}));
    EXPECT_THROW(core::check_rank_invariant({}), relperf::InternalError);
    EXPECT_THROW(core::check_rank_invariant({2, 3}), relperf::InternalError);
    EXPECT_THROW(core::check_rank_invariant({1, 3}), relperf::InternalError);
    EXPECT_THROW(core::check_rank_invariant({1, 2, 1}), relperf::InternalError);
}
