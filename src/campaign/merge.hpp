#pragma once
//! \file merge.hpp
//! Merge-then-cluster: validate a set of shard results against the campaign
//! spec and stitch them back into the unsharded MeasurementSet, then hand it
//! to the standard analysis. Validation is strict — a merge over shards from
//! a different plan, a duplicate shard, a missing shard or a shard whose
//! contents disagree with its plan is a hard error, because a silently wrong
//! merge would produce a confidently wrong clustering. The plan check is
//! one comparison: the shard's recorded entries applied to the spec must
//! leave its hash, and the manifest's spec_hash, equal to the spec's.

#include "campaign/shard_io.hpp"
#include "campaign/spec.hpp"
#include "core/pipeline.hpp"

#include <cstddef>
#include <vector>

namespace relperf::campaign {

/// Validates `shards` against `spec` and returns the merged MeasurementSet
/// in global enumeration order — bit-identical to what the single-process
/// pipeline measures. Shards may arrive in any order. Throws relperf::Error
/// on: empty input, a different plan (the message names every differing
/// key with both values), inconsistent or duplicate shard indices, missing
/// shards, or per-shard contents that do not match the shard's plan (wrong
/// algorithms or sample counts).
[[nodiscard]] core::MeasurementSet merge_shards(
    const CampaignSpec& spec, const std::vector<ShardResult>& shards);

/// Convenience single-host campaign: run all shards (LocalShardRunner with
/// `workers` threads), merge, cluster the merged set with its repetitions on
/// `workers` threads (0 = all cores for both). shard_count = 0 uses
/// spec.shards. For fixed-N specs this produces the exact AnalysisResult of
/// core::analyze_chain on the same plan, for every choice of shard_count
/// and workers. Adaptive specs are deterministic per shard_count, but
/// shard-local early stopping decides per shard, so different K may keep
/// different per-algorithm counts (the sample values stay prefix-identical);
/// with K = 1 the engine runs once over the whole plan and its last
/// clustering is the result. Coordinated specs (adaptive_coordination =
/// coordinated) route through run_coordinated_campaign with the same
/// `workers`; their counts are K-invariant.
[[nodiscard]] core::AnalysisResult run_campaign(const CampaignSpec& spec,
                                                std::size_t shard_count = 0,
                                                std::size_t workers = 1);

} // namespace relperf::campaign
