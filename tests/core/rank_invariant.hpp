#pragma once
//! \file rank_invariant.hpp
//! The rank-label invariant of a three-way sort: labels non-decreasing from
//! 1, in steps of 0 or 1. The sorter keeps its labels as 0/1 steps, which
//! cannot break it, so only the property tests check it, as their oracle on
//! the labels a sort returns.

#include "support/error.hpp"

#include <cstddef>
#include <vector>

namespace relperf::core {

/// Throws InternalError unless `ranks` satisfies the rank-label invariant.
inline void check_rank_invariant(const std::vector<int>& ranks) {
    RELPERF_ASSERT(!ranks.empty(), "rank invariant: empty label vector");
    RELPERF_ASSERT(ranks.front() == 1, "rank invariant: first label must be 1");
    for (std::size_t i = 1; i < ranks.size(); ++i) {
        const int step = ranks[i] - ranks[i - 1];
        RELPERF_ASSERT(step == 0 || step == 1,
                       "rank invariant: labels must be non-decreasing with steps 0/1");
    }
}

} // namespace relperf::core
