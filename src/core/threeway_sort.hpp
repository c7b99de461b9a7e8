#pragma once
//! \file threeway_sort.hpp
//! Bubble sort with a three-way comparator and merged rank labels — the
//! paper's Procedures 1 (SortAlgs), 2 (UpdateAlgIndices) and
//! 3 (UpdateAlgRanks), including the Figure 2 update semantics.
//!
//! State: a sequence of algorithm ids (best first) plus non-decreasing rank
//! labels r_1 <= ... <= r_p with r_1 = 1 and steps in {0, 1}. The labels
//! partition the sequence into performance classes; the update rules merge
//! classes on "equivalent" outcomes and split them when an algorithm defeats
//! every member of its own class. The `core.ThreeWaySort.*` tests pin the
//! exact contract, and `core.ThreeWaySort.PaperFigure2TraceVerbatim` replays
//! the paper's Figure 2 trace verbatim.

#include "core/comparison.hpp"

#include <cstddef>
#include <functional>
#include <vector>

namespace relperf::core {

/// Index-level three-way comparison: outcome of comparing algorithm `a`
/// against algorithm `b` (Better = a wins). May be stochastic.
using ThreeWayCompare = std::function<Ordering(std::size_t a, std::size_t b)>;

/// Result of one sort: `order[pos]` is the algorithm id at sequence position
/// `pos` (best first) and `ranks[pos]` its performance-class label (1-based).
struct RankedSequence {
    std::vector<std::size_t> order;
    std::vector<int> ranks;

    /// Number of performance classes k (paper: k <= p, found dynamically).
    [[nodiscard]] int cluster_count() const noexcept {
        return ranks.empty() ? 0 : ranks.back();
    }

    /// Rank label of algorithm `alg`; throws if `alg` is not in the sequence.
    [[nodiscard]] int rank_of(std::size_t alg) const;

    /// Position of algorithm `alg` in the sorted sequence.
    [[nodiscard]] std::size_t position_of(std::size_t alg) const;

    /// All algorithms with rank label `rank`.
    [[nodiscard]] std::vector<std::size_t> cluster(int rank) const;
};

/// One comparison step of the sort, recorded for traces (paper Figure 2).
struct SortStep {
    std::size_t pass = 0;      ///< Outer bubble-sort pass (0-based).
    std::size_t position = 0;  ///< Left index j of the compared pair.
    std::size_t left_alg = 0;  ///< Algorithm at position j before the step.
    std::size_t right_alg = 0; ///< Algorithm at position j+1 before the step.
    Ordering outcome = Ordering::Equivalent; ///< compare(left, right).
    bool swapped = false;
    std::vector<std::size_t> order_after;
    std::vector<int> ranks_after;
};

/// The paper's SortAlgs procedure.
class ThreeWaySorter {
public:
    explicit ThreeWaySorter(ThreeWayCompare compare);

    /// Sorts algorithms `0..count-1` starting from identity order.
    [[nodiscard]] RankedSequence sort(std::size_t count) const;

    /// Sorts starting from an explicit initial order (Procedure 4 shuffles
    /// the set before each repetition). `initial_order` must be a permutation
    /// of 0..p-1.
    [[nodiscard]] RankedSequence sort(std::vector<std::size_t> initial_order) const;

    /// As above, recording every comparison into `trace`.
    [[nodiscard]] RankedSequence sort_traced(std::vector<std::size_t> initial_order,
                                             std::vector<SortStep>& trace) const;

private:
    RankedSequence run(std::vector<std::size_t> order,
                       std::vector<SortStep>* trace) const;

    ThreeWayCompare compare_;
};

/// Validates the rank-label invariant (non-decreasing from 1, steps in
/// {0,1}); throws InternalError on violation. The sorter keeps its labels as
/// 0/1 steps, which cannot break the invariant, so it never calls this; the
/// property tests use it as their oracle on the labels a sort returns.
void check_rank_invariant(const std::vector<int>& ranks);

} // namespace relperf::core
