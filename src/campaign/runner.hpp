#pragma once
//! \file runner.hpp
//! Where a campaign run begins. run_plan() is the one router behind every
//! in-process run (run_campaign, run_coordinated_campaign and every tier of
//! cache::run_campaign_cached). It makes one choice per plan:
//!
//!  - one MeasurementEngine over the whole variant list, when a sample source
//!    is given or when the plan is adaptive and K-invariant (coordinated, or
//!    on one shard); the coordinator's observer attaches only to coordinated
//!    plans;
//!  - otherwise (fixed N, or shard-local stopping on K > 1 shards) the K
//!    shards, measured by LocalShardRunner, merged and clustered once.
//!
//! run_shard() measures exactly the variants a shard owns through a
//! GlobalSampleSource, whose variants draw on the streams of their *global*
//! indices (core::assignment_stream_seed) — so the union of all shards
//! reproduces the single-process pipeline bit-for-bit, no matter where or in
//! which order the shards ran. LocalShardRunner fans the shards of one
//! campaign out across worker threads on this machine.

#include "campaign/shard_io.hpp"
#include "campaign/sharder.hpp"
#include "campaign/spec.hpp"
#include "core/pipeline.hpp"

#include <cstddef>
#include <memory>
#include <vector>

namespace relperf::campaign {

/// The one check of a shard count: validates `spec` and splits its variant
/// list into `shard_count` (0 = spec.shards) shards. Throws InvalidArgument
/// with the Sharder's message unless 1 <= K <= the plan's variant count.
/// run_plan and cache::run_campaign_cached call it before anything else.
[[nodiscard]] Sharder split_plan(const CampaignSpec& spec,
                                 std::size_t shard_count = 0);

/// True when `spec` measures the same per-algorithm counts on every shard
/// count: fixed N, coordinated stopping, or `shard_count` (0 = spec.shards)
/// of 1. Shard-local adaptive stopping on K > 1 shards decides per shard, so
/// its counts depend on K, which the plan hash deliberately excludes.
[[nodiscard]] bool k_invariant(const CampaignSpec& spec,
                               std::size_t shard_count) noexcept;

/// Measures shard `shard_index` of `spec`'s plan split into `shard_count`
/// shards. Pass shard_count = 0 to use spec.shards. A fixed-N shard only
/// measures; an adaptive shard runs core::analyze_source over its own
/// variants. The result's manifest is shard_manifest() plus, for an
/// adaptive plan, the per-algorithm counts.
[[nodiscard]] ShardResult run_shard(const CampaignSpec& spec,
                                    std::size_t shard_index,
                                    std::size_t shard_count = 0);

/// Outcome of a campaign run: the merged analysis and, for a coordinated
/// plan, the coordinator's broadcast history.
struct CoordinatedCampaignResult {
    /// Final merged analysis — measurements in global enumeration order,
    /// clustering identical to analyze_measurements on them, with
    /// fixed_n_samples restored to the plan's true cap.
    core::AnalysisResult analysis;
    /// Cumulative global stop-set size after each coordinator round.
    std::vector<std::size_t> stopset_rounds;
    std::size_t rounds = 0; ///< Coordinator rounds, one per engine round.
};

/// Runs `spec`'s whole plan on this machine (see the file comment for the
/// routing rule), on `shard_count` shards (0 = spec.shards). `workers`
/// (0 = all cores) sizes the shard pool and every clustering's repetition
/// pool without moving a bit. A given `source` must enumerate the spec's
/// full global variant list in order, on the streams of
/// core::assignment_stream_seed — the seam the result cache's prefix tier
/// uses to replay stored draws; null draws from the spec's own
/// GlobalSampleSource. Fixed-N plans give the exact AnalysisResult of
/// core::analyze_chain for every K and `workers`.
///
/// A coordinated plan re-clusters the merged measurements of all shards
/// between rounds and broadcasts the global stop-set, so stop decisions
/// watch the statistic the final analysis reports. Because every variant
/// draws from the stream of its global index and the stop-set is global,
/// that is value-identical to one engine over the full variant list: its
/// counts are K-invariant, and K only sets how many shards each broadcast
/// reaches (the `campaign.coordinate` span, relperf_coordination_rounds,
/// relperf_stopset_broadcast_total and stopset_rounds).
[[nodiscard]] CoordinatedCampaignResult run_plan(
    const CampaignSpec& spec, std::size_t shard_count = 0,
    std::size_t workers = 1, core::SampleSource* source = nullptr);

/// run_plan for a plan that must be coordinated: an adaptive spec with
/// adaptive_coordinated set (the key is measurement-determining, so the
/// manifests and the plan hash must record it; relperf_cli --coordinated
/// sets it on the loaded spec). InvalidArgument otherwise.
[[nodiscard]] CoordinatedCampaignResult run_coordinated_campaign(
    const CampaignSpec& spec, std::size_t shard_count = 0,
    std::size_t workers = 1);

/// The one builder that turns a spec into an executor-backed sample source:
/// validates the spec, checks that the plan's backends exist in this build,
/// builds the sim or real executor and enumerates the variants at
/// `global_indices` (all of them when empty; InvalidArgument on an index >=
/// the variant count). The source opens each variant's stream from
/// measurement_seed and its global index (core::VariantSampleSource), so a
/// subset reproduces the matching rows of the full list bit for bit.
/// The executor lives as long as the bundle, so the source stays valid.
class GlobalSampleSource {
public:
    explicit GlobalSampleSource(
        const CampaignSpec& spec,
        const std::vector<std::size_t>& global_indices = {});
    ~GlobalSampleSource();
    GlobalSampleSource(const GlobalSampleSource&) = delete;
    GlobalSampleSource& operator=(const GlobalSampleSource&) = delete;

    [[nodiscard]] core::SampleSource& source();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Runs every shard of a campaign on this machine.
class LocalShardRunner {
public:
    /// `workers` = maximum concurrent shard threads; 0 means one per
    /// hardware thread, and the pool never runs wider than the hardware
    /// threads (support::parallel_for). Campaigns with ExecutorKind::Real
    /// always run their shards sequentially regardless of `workers`:
    /// concurrent wall-clock measurement on one machine would contend for
    /// the CPUs being measured.
    /// A shard-local adaptive shard clusters its own algorithms serially:
    /// the shards already run `workers` wide.
    explicit LocalShardRunner(std::size_t workers = 0);

    /// Runs all `shard_count` (0 = spec.shards) shards; returns them ordered
    /// by shard index. If shards throw, the lowest failing shard's exception
    /// is rethrown.
    [[nodiscard]] std::vector<ShardResult> run(const CampaignSpec& spec,
                                               std::size_t shard_count = 0) const;

private:
    std::size_t workers_;
};

} // namespace relperf::campaign
