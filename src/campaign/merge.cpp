#include "campaign/merge.hpp"

#include "campaign/runner.hpp"
#include "campaign/sharder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <vector>

namespace relperf::campaign {

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
        // Backend first: a cross-backend merge also fails the hash check,
        // but "different backend" is the actionable message — mixing
        // portable and vendor measurements of the same math would cluster
        // different variants as one.
        if (m.backend != spec.backend) {
            throw Error(str::format(
                "merge_shards: shard %zu was measured on the '%s' linalg "
                "backend, this spec demands '%s' — same algorithm on a "
                "different backend is a different variant, refusing to merge",
                m.shard_index, m.backend.c_str(), spec.backend.c_str()));
        }
        if (m.variant_backends != spec.variant_backends) {
            const auto describe = [](const std::vector<std::string>& list) {
                return list.empty() ? std::string("<none>")
                                    : str::join(list, ",");
            };
            throw Error(str::format(
                "merge_shards: shard %zu was measured over the per-task "
                "backend axis [%s], this spec demands [%s] — the variant "
                "spaces differ, refusing to merge",
                m.shard_index, describe(m.variant_backends).c_str(),
                describe(spec.variant_backends).c_str()));
        }
        if (m.adaptive_min != spec.adaptive_min ||
            (spec.adaptive() && (m.adaptive_batch != spec.adaptive_batch ||
                                 m.adaptive_stability != spec.adaptive_stability))) {
            const auto describe = [](std::size_t min, std::size_t batch,
                                     std::size_t stability) {
                return min == 0 ? std::string("fixed-N")
                                : str::format("adaptive min=%zu batch=%zu "
                                              "stability=%zu",
                                              min, batch, stability);
            };
            throw Error(str::format(
                "merge_shards: shard %zu was measured under a %s plan, this "
                "spec demands %s — the per-algorithm sample counts differ, "
                "refusing to merge",
                m.shard_index,
                describe(m.adaptive_min, m.adaptive_batch, m.adaptive_stability)
                    .c_str(),
                describe(spec.adaptive_min, spec.adaptive_batch,
                         spec.adaptive_stability)
                    .c_str()));
        }
        if (m.adaptive_coordinated != spec.adaptive_coordinated) {
            throw Error(str::format(
                "merge_shards: shard %zu was measured under %s stopping, "
                "this spec demands %s — the stop decisions watched a "
                "different clustering, refusing to merge",
                m.shard_index,
                m.adaptive_coordinated ? "coordinated" : "shard-local",
                spec.adaptive_coordinated ? "coordinated" : "shard-local"));
        }
        if (m.adaptive_confidence != spec.adaptive_confidence) {
            const auto describe = [](double q) {
                return q == 0.0 ? std::string("the stability rule")
                                : str::format("confidence %.12g", q);
            };
            throw Error(str::format(
                "merge_shards: shard %zu stopped on %s, this spec demands %s "
                "— the per-algorithm sample counts differ, refusing to merge",
                m.shard_index, describe(m.adaptive_confidence).c_str(),
                describe(spec.adaptive_confidence).c_str()));
        }
        // Every shard of a coordinated run received the same broadcast
        // history; a disagreement means the files come from different
        // coordinator runs even if the plan hashes match.
        if (spec.adaptive_coordinated &&
            m.stopset_rounds != shards.front().manifest.stopset_rounds) {
            throw Error(str::format(
                "merge_shards: shard %zu records a different coordinator "
                "stop-set history than shard %zu — the files come from "
                "different coordinated runs, refusing to merge",
                m.shard_index, shards.front().manifest.shard_index));
        }
        if (m.spec_hash != expected_hash) {
            throw Error(str::format(
                "merge_shards: shard %zu was measured under a different plan "
                "(manifest spec_hash %016llx, this spec hashes to %016llx) — "
                "refusing to merge",
                m.shard_index,
                static_cast<unsigned long long>(m.spec_hash),
                static_cast<unsigned long long>(expected_hash)));
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
    // Coordinated plans cannot run shard-by-shard (the stop decisions need
    // the merged view between rounds), so route them through the
    // coordinator: one global engine whose clusterings use `workers`.
    if (spec.adaptive_coordinated) {
        return run_coordinated_campaign(spec, shard_count, workers).analysis;
    }
    const LocalShardRunner runner(workers);
    const std::vector<ShardResult> shards = runner.run(spec, shard_count);
    core::MeasurementSet merged = merge_shards(spec, shards);
    core::AnalysisResult result = core::analyze_measurements(
        std::move(merged), spec.analysis_config(workers));
    // analyze_measurements cannot know the plan's cap; restore the true
    // fixed-N cost so result.saved quantities reflect the adaptive savings.
    result.fixed_n_samples = result.measurements.size() * spec.measurements;
    return result;
}

} // namespace relperf::campaign
