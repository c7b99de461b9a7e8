#include "campaign/sharder.hpp"

#include "support/error.hpp"
#include "support/str.hpp"

namespace relperf::campaign {

Sharder::Sharder(std::size_t assignment_count, std::size_t shard_count)
    : assignment_count_(assignment_count), shard_count_(shard_count) {
    RELPERF_REQUIRE(shard_count > 0, "Sharder: shard count (K) must be positive");
    RELPERF_REQUIRE(assignment_count > 0, "Sharder: nothing to shard");
    RELPERF_REQUIRE(
        shard_count <= assignment_count,
        str::format("Sharder: %zu shards for %zu assignments would leave "
                    "empty shards; use K <= %zu",
                    shard_count, assignment_count, assignment_count));
}

ShardPlan Sharder::plan(std::size_t shard_index) const {
    RELPERF_REQUIRE(shard_index < shard_count_,
                    str::format("Sharder: shard index %zu out of range [0, %zu)",
                                shard_index, shard_count_));
    ShardPlan out;
    out.index = shard_index;
    out.count = shard_count_;
    for (std::size_t i = shard_index; i < assignment_count_; i += shard_count_) {
        out.assignment_indices.push_back(i);
    }
    return out;
}

std::size_t Sharder::owner_of(std::size_t assignment_index) const {
    RELPERF_REQUIRE(assignment_index < assignment_count_,
                    "Sharder: assignment index out of range");
    return assignment_index % shard_count_;
}

ShardRef parse_shard_ref(const std::string& text) {
    const std::vector<std::string> parts = str::split(str::trim(text), '/');
    if (parts.size() != 2) {
        throw InvalidArgument("--shard expects 'i/K' (e.g. '0/4'), got '" +
                              text + "'");
    }
    ShardRef ref;
    ref.index = str::parse_size(parts[0], "--shard index");
    ref.count = str::parse_size(parts[1], "--shard count");
    RELPERF_REQUIRE(ref.count > 0, "--shard: K must be positive");
    RELPERF_REQUIRE(ref.index < ref.count,
                    str::format("--shard: index %zu must be below K = %zu "
                                "(indices are 0-based)",
                                ref.index, ref.count));
    return ref;
}

} // namespace relperf::campaign
