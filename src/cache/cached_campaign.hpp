#pragma once
//! \file cached_campaign.hpp
//! The cache-aware campaign entry point: consult the ResultCache before any
//! measurement, serve what it holds, measure only what it doesn't, publish
//! the result back.
//!
//! Three outcomes (see result_cache.hpp for the lookup tiers):
//!
//!  - **Exact hit** — the entry's samples are returned with zero executor
//!    draws (relperf_samples_total stays 0: only the executor-backed leaf
//!    sources count drawn samples). When the entry's tally matches the
//!    spec's analysis key and the samples, the clustering is rebuilt from
//!    it with zero comparisons. Otherwise (absent, stale or invalid tally)
//!    the samples are re-clustered under the spec's analysis knobs, with the
//!    same bits, and the entry is re-stored with the new tally.
//!  - **Prefix extension** — the entry's samples are replayed as the stream
//!    prefix through a CachedSampleSource over campaign::GlobalSampleSource
//!    (cached_source.hpp), handed to campaign::run_plan as its source: one
//!    engine re-runs the plan from scratch seeing identical values, so the
//!    final MeasurementSet is bit-identical to a cold full run while only
//!    the budget delta reaches the executor. The extended result is stored,
//!    upgrading the entry.
//!  - **Miss** — campaign::run_plan runs the plan exactly as without a
//!    cache, then stores.
//!
//! Every tier, the bypass and a disabled cache go through the one router,
//! campaign::run_plan, and the shard count is checked (campaign::split_plan)
//! before the lookup: a K outside 1..p is an InvalidArgument on every tier,
//! and the cache directory is not touched.
//!
//! Every store carries the tier's clustering, so the next exact hit of the
//! plan under the same analysis knobs is served without clustering. On the
//! relbench `cache` op (miss, exact hit, prefix extension of the CI plan,
//! 2 workers) that removes one of its three clusterings: median `wall_s`
//! 0.100 -> 0.070 s and `cpu_s` 0.184 -> 0.131 s (calibrated seconds,
//! 4-vCPU KVM Xeon guest, GCC 12 Release).
//!
//! Cacheability is campaign::k_invariant: a shard-local adaptive plan run
//! with K > 1 shards produces per-algorithm counts that depend on K, which
//! the plan hash deliberately excludes — such runs bypass the cache
//! entirely (neither served nor stored, counted as a miss). Fixed-N plans
//! (any K), single-shard adaptive plans and coordinated adaptive plans
//! (K-invariant counts by construction) are all cacheable.

#include "cache/result_cache.hpp"
#include "campaign/spec.hpp"
#include "core/pipeline.hpp"

#include <cstddef>
#include <vector>

namespace relperf::cache {

/// Outcome of a cache-aware campaign run.
struct CachedRunResult {
    core::AnalysisResult analysis;
    HitKind cache = HitKind::Miss; ///< Lookup tier that produced `analysis`.
    /// True when the plan is not cacheable under the requested shard count
    /// (shard-local adaptive with K > 1) — the run went straight through.
    bool bypassed = false;
    /// Samples served from the cache instead of the executor (all of them on
    /// an exact hit, the reused prefix on an extension, 0 on a miss).
    std::size_t samples_from_cache = 0;
    /// Coordinated campaigns: the stop-set broadcast history (from the
    /// coordinator on a live run, from the entry manifest on an exact hit).
    std::vector<std::size_t> stopset_rounds;
    std::size_t rounds = 0; ///< Coordinator rounds (coordinated plans only).
    /// True when an exact hit was served from the entry's stored tally with
    /// no clustering run; false when it re-clustered (and on other tiers).
    bool stored_clustering = false;
};

/// True when `spec` run with `shard_count` shards (0 = spec.shards) yields a
/// K-invariant result the cache may serve and store (campaign::k_invariant).
[[nodiscard]] bool cacheable(const campaign::CampaignSpec& spec,
                             std::size_t shard_count);

/// campaign::run_plan with the cache consulted first. A disabled cache
/// (empty dir) or an uncacheable plan degrades to a plain run. Throws
/// InvalidArgument, before any lookup, unless 1 <= K <= the plan's variant
/// count. `workers` (0 = all cores) sizes the shard pool of a sharded miss
/// and the clustering pool of every tier — miss, exact hit and prefix
/// extension — without moving a bit (as in run_plan).
[[nodiscard]] CachedRunResult run_campaign_cached(
    const campaign::CampaignSpec& spec, ResultCache& cache,
    std::size_t shard_count = 0, std::size_t workers = 1);

} // namespace relperf::cache
