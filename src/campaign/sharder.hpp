#pragma once
//! \file sharder.hpp
//! Deterministic partition of a campaign's assignment list into K shards.
//!
//! Shards are strided (shard i owns global assignment indices i, i+K,
//! i+2K, ...): assignment cost grows with the number of offloaded tasks, so
//! striding balances work better than contiguous blocks, and the mapping is a
//! pure function of (assignment_count, K, i) — no state, no RNG, no
//! dependence on which machine computes it. Combined with the per-assignment
//! measurement streams of core::assignment_stream_seed, this makes every
//! shard's output reproducible and independent of execution order.

#include <cstddef>
#include <string>
#include <vector>

namespace relperf::campaign {

/// The work list of one shard: which global assignment indices it measures.
struct ShardPlan {
    std::size_t index = 0; ///< This shard, in [0, count).
    std::size_t count = 1; ///< Total number of shards (K).
    std::vector<std::size_t> assignment_indices; ///< Ascending global indices.
};

/// Splits `assignment_count` assignments into `shard_count` strided shards.
/// Requires 1 <= shard_count <= assignment_count (every shard non-empty).
class Sharder {
public:
    Sharder(std::size_t assignment_count, std::size_t shard_count);

    [[nodiscard]] std::size_t assignment_count() const noexcept {
        return assignment_count_;
    }
    [[nodiscard]] std::size_t shard_count() const noexcept {
        return shard_count_;
    }

    /// The plan of shard `shard_index`; throws when out of range.
    [[nodiscard]] ShardPlan plan(std::size_t shard_index) const;

    /// The shard that owns global assignment `assignment_index`.
    [[nodiscard]] std::size_t owner_of(std::size_t assignment_index) const;

private:
    std::size_t assignment_count_;
    std::size_t shard_count_;
};

/// A `i/K` shard reference as given on the command line (0-based index).
struct ShardRef {
    std::size_t index = 0;
    std::size_t count = 1;
};

/// Parses "i/K" (e.g. "0/4"); throws InvalidArgument on malformed text or
/// when the 0-based index is not below K.
[[nodiscard]] ShardRef parse_shard_ref(const std::string& text);

} // namespace relperf::campaign
