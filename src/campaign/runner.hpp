#pragma once
//! \file runner.hpp
//! Shard execution. run_shard() measures exactly the variants a shard owns
//! through a GlobalSampleSource, on per-variant RNG streams derived from the
//! campaign's measurement seed and each variant's *global* index
//! (core::assignment_stream_seed) — so the union of all shards reproduces
//! the single-process pipeline bit-for-bit, no matter where or in which
//! order the shards ran. LocalShardRunner fans the shards of one campaign
//! out across worker threads on this machine.

#include "campaign/shard_io.hpp"
#include "campaign/spec.hpp"
#include "core/pipeline.hpp"

#include <cstddef>
#include <memory>
#include <vector>

namespace relperf::campaign {

/// Measures shard `shard_index` of `spec`'s plan split into `shard_count`
/// shards. Pass shard_count = 0 to use spec.shards. A fixed-N shard only
/// measures; an adaptive shard runs core::analyze_source over its own
/// variants. The result's manifest is shard_manifest() plus, for an
/// adaptive plan, the per-algorithm counts.
[[nodiscard]] ShardResult run_shard(const CampaignSpec& spec,
                                    std::size_t shard_index,
                                    std::size_t shard_count = 0);

/// Outcome of a coordinated adaptive campaign: the merged analysis and the
/// coordinator's broadcast history.
struct CoordinatedCampaignResult {
    /// Final merged analysis — measurements in global enumeration order,
    /// clustering identical to analyze_measurements on them, with
    /// fixed_n_samples restored to the plan's true cap.
    core::AnalysisResult analysis;
    /// Cumulative global stop-set size after each coordinator round.
    std::vector<std::size_t> stopset_rounds;
    std::size_t rounds = 0; ///< Coordinator rounds, one per engine round.
};

/// Runs an adaptive campaign with cross-shard coordinated stopping: between
/// rounds the coordinator re-clusters the *merged* measurements of all
/// shards and broadcasts the global stop-set, so stop decisions watch the
/// same statistic the final analysis reports. Because every variant draws
/// from the stream derived from its global index and the stop-set is global,
/// per-algorithm sample counts are K-invariant: shard_count only sets how
/// many shards each stop-set broadcast reaches, never a measured value —
/// and with shard_count = 1 the run is bit-identical to the shard-local
/// engine.
/// Requires an adaptive spec with adaptive_coordinated set (the key is
/// measurement-determining, so the manifests and the plan hash must record
/// it; relperf_cli --coordinated sets it on the loaded spec). shard_count =
/// 0 uses spec.shards. Each round's clustering runs its repetitions on
/// `workers` threads (core::ClustererConfig::workers; 0 = all cores), which
/// moves no bit of the result.
[[nodiscard]] CoordinatedCampaignResult run_coordinated_campaign(
    const CampaignSpec& spec, std::size_t shard_count = 0,
    std::size_t workers = 1);

/// As above, but drawing from `source` instead of building the spec's
/// executor-backed source internally. `source` must enumerate the spec's
/// full global variant list in order, on the per-assignment streams of
/// core::assignment_stream_seed — the seam the result cache's
/// prefix-extension path uses to serve already-measured draws from disk
/// while fresh draws fall through to the real executor.
[[nodiscard]] CoordinatedCampaignResult run_coordinated_campaign(
    const CampaignSpec& spec, std::size_t shard_count,
    core::SampleSource& source, std::size_t workers = 1);

/// The one builder that turns a spec into an executor-backed sample source:
/// validates the spec, checks that the plan's backends exist in this build,
/// builds the sim or real executor and enumerates the variants at
/// `global_indices` (all of them when empty; InvalidArgument on an index >=
/// the variant count). Each variant draws on the stream of its global index,
/// so a subset reproduces the matching rows of the full list bit for bit.
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
    /// hardware thread. Campaigns with ExecutorKind::Real always run their
    /// shards sequentially regardless of `workers`: concurrent wall-clock
    /// measurement on one machine would contend for the CPUs being measured.
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
