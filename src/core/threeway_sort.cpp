#include "core/threeway_sort.hpp"

#include "support/error.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace relperf::core {

int RankedSequence::rank_of(std::size_t alg) const {
    return ranks[position_of(alg)];
}

std::size_t RankedSequence::position_of(std::size_t alg) const {
    const auto it = std::find(order.begin(), order.end(), alg);
    RELPERF_REQUIRE(it != order.end(), "RankedSequence: algorithm not in sequence");
    return static_cast<std::size_t>(it - order.begin());
}

std::vector<std::size_t> RankedSequence::cluster(int rank) const {
    std::vector<std::size_t> out;
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        if (ranks[pos] == rank) out.push_back(order[pos]);
    }
    return out;
}

void check_rank_invariant(const std::vector<int>& ranks) {
    RELPERF_ASSERT(!ranks.empty(), "rank invariant: empty label vector");
    RELPERF_ASSERT(ranks.front() == 1, "rank invariant: first label must be 1");
    for (std::size_t i = 1; i < ranks.size(); ++i) {
        const int step = ranks[i] - ranks[i - 1];
        RELPERF_ASSERT(step == 0 || step == 1,
                       "rank invariant: labels must be non-decreasing with steps 0/1");
    }
}

ThreeWaySorter::ThreeWaySorter(ThreeWayCompare compare)
    : compare_(std::move(compare)) {
    RELPERF_REQUIRE(static_cast<bool>(compare_), "ThreeWaySorter: null comparator");
}

RankedSequence ThreeWaySorter::sort(std::size_t count) const {
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    return run(std::move(order), nullptr);
}

RankedSequence ThreeWaySorter::sort(std::vector<std::size_t> initial_order) const {
    return run(std::move(initial_order), nullptr);
}

RankedSequence ThreeWaySorter::sort_traced(std::vector<std::size_t> initial_order,
                                           std::vector<SortStep>& trace) const {
    return run(std::move(initial_order), &trace);
}

RankedSequence ThreeWaySorter::run(std::vector<std::size_t> order,
                                   std::vector<SortStep>* trace) const {
    const std::size_t p = order.size();
    RELPERF_REQUIRE(p > 0, "ThreeWaySorter: empty algorithm set");
    {
        // Must be a permutation of 0..p-1.
        std::vector<std::size_t> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        for (std::size_t i = 0; i < p; ++i) {
            RELPERF_REQUIRE(sorted[i] == i,
                            "ThreeWaySorter: initial order must be a permutation");
        }
    }

    // Procedure 1 lines 1-4: ranks initialized 1..p along the sequence. The
    // labels are kept as the 0/1 steps between neighbouring positions,
    // step[i] = ranks[i + 1] - ranks[i] (true = 1): every update below moves
    // a whole suffix of labels by one, which changes only the step in front
    // of it, and labels that break the invariant cannot be expressed.
    std::vector<bool> step(p - 1, true);
    const auto labels = [&step] {
        std::vector<int> ranks(step.size() + 1, 1);
        for (std::size_t i = 0; i < step.size(); ++i) {
            ranks[i + 1] = ranks[i] + (step[i] ? 1 : 0);
        }
        return ranks;
    };

    // Procedure 1 lines 5-9: bubble passes; pass i compares positions
    // j, j+1 for j = 0 .. p-i-2 (the tail is already settled).
    for (std::size_t pass = 0; pass + 1 < p; ++pass) {
        for (std::size_t j = 0; j + 1 < p - pass; ++j) {
            const std::size_t left = order[j];
            const std::size_t right = order[j + 1];
            const Ordering outcome = compare_(left, right);
            bool swapped = false;

            if (outcome == Ordering::Worse) {
                // Procedure 2: the worse algorithm moves right.
                std::swap(order[j], order[j + 1]);
                swapped = true;
                // Procedure 3, swap branch. After the swap the winner sits at
                // position j; the virtual predecessor of position 0 has a
                // distinct label (paper: an algorithm that beat every member
                // of its class gets promoted). Either the winner joined the
                // predecessor's class from above and the loser's old class
                // merges up (step 1 -> 0), or the winner defeated all peers
                // of its class and splits it, pushing the remaining members
                // one rank down (step 0 -> 1).
                const bool same_as_pred = j > 0 && !step[j - 1];
                const bool same_as_succ = !step[j];
                if (same_as_pred != same_as_succ) step[j] = !step[j];
            } else if (outcome == Ordering::Equivalent) {
                // Procedure 3, no-swap branch: merge the two classes.
                step[j] = false;
            }
            // Ordering::Better: positions and ranks unchanged.

            if (trace != nullptr) {
                trace->push_back(SortStep{pass, j, left, right, outcome, swapped,
                                          order, labels()});
            }
        }
    }

    return RankedSequence{std::move(order), labels()};
}

} // namespace relperf::core
