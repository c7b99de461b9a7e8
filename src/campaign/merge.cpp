#include "campaign/merge.hpp"

#include "campaign/runner.hpp"
#include "campaign/sharder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <map>
#include <vector>

namespace relperf::campaign {

namespace {

/// The plan a shard was measured under: `spec` with the shard's entries set
/// on top, after resetting the keys whose absence has always meant
/// something (portable backend, no variant axis, fixed N, shard-local
/// stopping, stability rule) — so a manifest from before a key was recorded
/// reads the way it was written.
CampaignSpec recorded_plan(const CampaignSpec& spec, const ShardManifest& m) {
    CampaignSpec plan = spec;
    plan.backend = "portable";
    plan.variant_backends.clear();
    plan.adaptive_min = 0;
    plan.adaptive_coordinated = false;
    plan.adaptive_confidence = 0.0;
    for (const auto& [key, value] : m.plan) {
        const bool known = plan.set(key, value);
        RELPERF_REQUIRE(known, "merge_shards: shard manifest records the "
                               "unknown plan key '" + key + "'");
    }
    return plan;
}

/// "key = value (this spec: value)" for each entry of `recorded` that alone
/// moves `spec`'s hash, then "key = absent (this spec: value)" for each spec
/// entry `recorded` leaves out; "; "-joined.
std::string plan_difference(const CampaignSpec& spec,
                            const CampaignSpec& recorded) {
    const std::vector<SpecEntry> entries = spec.entries();
    std::map<std::string, std::string> left_out(entries.begin(), entries.end());
    std::vector<std::string> lines;
    for (const auto& [key, value] : recorded.entries()) {
        const auto it = left_out.find(key);
        const std::string was = it == left_out.end() ? "absent" : it->second;
        if (it != left_out.end()) left_out.erase(it);
        CampaignSpec probe = spec;
        (void)probe.set(key, value);
        if (probe.hash() != spec.hash()) {
            lines.push_back(key + " = " + value + " (this spec: " + was + ")");
        }
    }
    for (const auto& [key, value] : left_out) {
        lines.push_back(key + " = absent (this spec: " + value + ")");
    }
    return str::join(lines, "; ");
}

} // namespace

core::MeasurementSet merge_shards(const CampaignSpec& spec,
                                  const std::vector<ShardResult>& shards) {
    spec.validate();
    RELPERF_REQUIRE(!shards.empty(), "merge_shards: no shards to merge");

    obs::Span span("campaign.merge", "campaign");
    span.arg("shards", static_cast<std::uint64_t>(shards.size()));
    obs::metrics().shard_merges_total.inc();

    const std::uint64_t expected_hash = spec.hash();
    const std::size_t shard_count = shards.front().manifest.shard_count;
    std::vector<const ShardResult*> by_index(shard_count, nullptr);

    for (const ShardResult& shard : shards) {
        const ShardManifest& m = shard.manifest;
        // One plan check: the shard's recorded plan and its manifest hash
        // must both be this spec's plan. The label, the shard count and (on
        // a fixed-N plan) the analysis knobs stay out of hash(), so they
        // stay out of the verdict.
        const CampaignSpec recorded = recorded_plan(spec, m);
        if (recorded.hash() != expected_hash || m.spec_hash != expected_hash) {
            std::string message = str::format(
                "merge_shards: shard %zu was measured under a different plan "
                "(manifest spec_hash %016llx, this spec hashes to %016llx)",
                m.shard_index, static_cast<unsigned long long>(m.spec_hash),
                static_cast<unsigned long long>(expected_hash));
            const std::string differences = plan_difference(spec, recorded);
            if (!differences.empty()) message += " [" + differences + "]";
            throw Error(message + " — refusing to merge");
        }
        if (m.shard_count != shard_count) {
            throw Error(str::format(
                "merge_shards: inconsistent shard counts (%zu vs %zu) — the "
                "shards come from different campaign splits",
                m.shard_count, shard_count));
        }
        if (m.shard_index >= shard_count) {
            throw Error(str::format(
                "merge_shards: shard index %zu out of range [0, %zu)",
                m.shard_index, shard_count));
        }
        if (by_index[m.shard_index] != nullptr) {
            throw Error(str::format("merge_shards: duplicate shard %zu/%zu",
                                    m.shard_index, shard_count));
        }
        by_index[m.shard_index] = &shard;
    }
    for (std::size_t i = 0; i < shard_count; ++i) {
        if (by_index[i] == nullptr) {
            throw Error(str::format(
                "merge_shards: shard %zu/%zu is missing (%zu of %zu present)",
                i, shard_count, shards.size(), shard_count));
        }
    }

    const std::vector<workloads::VariantAssignment> variants = spec.variants();
    const Sharder sharder(variants.size(), shard_count);

    // Every shard must contain exactly its plan: the planned algorithms with
    // N samples each.
    for (std::size_t i = 0; i < shard_count; ++i) {
        const ShardPlan plan = sharder.plan(i);
        const core::MeasurementSet& set = by_index[i]->measurements;
        if (set.size() != plan.assignment_indices.size()) {
            throw Error(str::format(
                "merge_shards: shard %zu holds %zu algorithms, plan expects "
                "%zu",
                i, set.size(), plan.assignment_indices.size()));
        }
        for (const std::size_t global : plan.assignment_indices) {
            const std::string name = variants[global].alg_name();
            if (!set.contains(name)) {
                throw Error(str::format(
                    "merge_shards: shard %zu is missing algorithm %s",
                    i, name.c_str()));
            }
            const std::size_t samples =
                set.samples(set.index_of(name)).size();
            if (!spec.adaptive()) {
                if (samples != spec.measurements) {
                    throw Error(str::format(
                        "merge_shards: shard %zu has %zu measurements of %s, "
                        "spec demands N = %zu",
                        i, samples, name.c_str(), spec.measurements));
                }
            } else {
                // Adaptive counts are min + k*batch, clamped at the cap: any
                // other count cannot have come from the engine's rounds.
                const bool reachable =
                    samples >= spec.adaptive_min &&
                    samples <= spec.measurements &&
                    (samples == spec.measurements ||
                     (samples - spec.adaptive_min) % spec.adaptive_batch == 0);
                if (!reachable) {
                    throw Error(str::format(
                        "merge_shards: shard %zu has %zu measurements of %s, "
                        "not reachable by the adaptive plan (min %zu, batch "
                        "%zu, cap %zu)",
                        i, samples, name.c_str(), spec.adaptive_min,
                        spec.adaptive_batch, spec.measurements));
                }
            }
        }
    }

    // Stitch back in global enumeration order.
    core::MeasurementSet merged;
    for (std::size_t global = 0; global < variants.size(); ++global) {
        const core::MeasurementSet& set =
            by_index[sharder.owner_of(global)]->measurements;
        const std::string name = variants[global].alg_name();
        const auto samples = set.samples(set.index_of(name));
        merged.add(name, {samples.begin(), samples.end()});
    }
    return merged;
}

core::AnalysisResult run_campaign(const CampaignSpec& spec,
                                  std::size_t shard_count,
                                  std::size_t workers) {
    return run_plan(spec, shard_count, workers).analysis;
}

} // namespace relperf::campaign
