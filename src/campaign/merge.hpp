#pragma once
//! \file merge.hpp
//! Merge-then-cluster: validate a set of shard results against the campaign
//! spec and stitch them back into the unsharded MeasurementSet, which
//! run_plan (runner.hpp) or relperf_cli --merge then clusters once.
//! Validation is strict — a merge over shards from a different plan, a
//! duplicate shard, a missing shard or a shard whose contents disagree with
//! its plan is a hard error, because a silently wrong merge would produce a
//! confidently wrong clustering. The plan check is one comparison: the
//! shard's recorded entries applied to the spec must leave its hash, and the
//! manifest's spec_hash, equal to the spec's.

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

/// Convenience single-host campaign: run_plan(spec, shard_count,
/// workers).analysis (runner.hpp has the routing rule). shard_count = 0 uses
/// spec.shards; `workers` (0 = all cores) sizes the shard and clustering
/// pools. For fixed-N specs this produces the exact AnalysisResult of
/// core::analyze_chain on the same plan, for every choice of shard_count
/// and workers. Shard-local adaptive specs are deterministic per
/// shard_count, but on K > 1 shards early stopping decides per shard, so
/// different K may keep different per-algorithm counts (the sample values
/// stay prefix-identical); on one shard, and for coordinated specs at any
/// K, one engine runs over the whole plan and its last clustering is the
/// result.
[[nodiscard]] core::AnalysisResult run_campaign(const CampaignSpec& spec,
                                                std::size_t shard_count = 0,
                                                std::size_t workers = 1);

} // namespace relperf::campaign
