#include "cache/cached_campaign.hpp"

#include "cache/cached_source.hpp"
#include "campaign/merge.hpp"
#include "campaign/runner.hpp"
#include "obs/metrics.hpp"

#include <utility>

namespace relperf::cache {

namespace {

/// A cold run of the uncached path, capturing the coordinated metadata.
CachedRunResult run_uncached(const campaign::CampaignSpec& spec,
                             std::size_t shard_count, std::size_t workers) {
    CachedRunResult out;
    if (spec.adaptive_coordinated) {
        campaign::CoordinatedCampaignResult coordinated =
            campaign::run_coordinated_campaign(spec, shard_count, workers);
        out.analysis = std::move(coordinated.analysis);
        out.stopset_rounds = std::move(coordinated.stopset_rounds);
        out.rounds = coordinated.rounds;
    } else {
        out.analysis = campaign::run_campaign(spec, shard_count, workers);
    }
    return out;
}

} // namespace

bool cacheable(const campaign::CampaignSpec& spec, std::size_t shard_count) {
    if (!spec.adaptive() || spec.adaptive_coordinated) return true;
    // Shard-local adaptive stopping decides per shard, so the merged counts
    // depend on K — which the plan hash deliberately excludes. Only the
    // single-shard run (identical to the unsharded engine) is addressable.
    const std::size_t k = shard_count == 0 ? spec.shards : shard_count;
    return k == 1;
}

CachedRunResult run_campaign_cached(const campaign::CampaignSpec& spec,
                                    ResultCache& cache,
                                    std::size_t shard_count,
                                    std::size_t workers) {
    spec.validate();
    if (!cache.config().enabled()) {
        return run_uncached(spec, shard_count, workers);
    }
    if (!cacheable(spec, shard_count)) {
        // Not addressable by the plan hash: neither served nor stored.
        obs::metrics().cache_misses_total.inc();
        CachedRunResult out = run_uncached(spec, shard_count, workers);
        out.bypassed = true;
        return out;
    }

    CacheLookup lookup = cache.lookup(spec);
    CachedRunResult out;
    out.cache = lookup.kind;

    if (lookup.kind == HitKind::Exact) {
        // Zero executor draws. A validated tally is the clustering itself;
        // without one, re-cluster under the spec's analysis knobs (the
        // same bits, a pure function of samples and knobs) and repair the
        // tally through the ordinary store.
        out.stored_clustering = lookup.clustering.has_value();
        out.analysis =
            out.stored_clustering
                ? core::analysis_result(std::move(lookup.merged),
                                        std::move(*lookup.clustering))
                : core::analyze_measurements(std::move(lookup.merged),
                                             spec.analysis_config(workers));
        // Neither bundle can know the plan's cap; restore it.
        out.analysis.fixed_n_samples =
            out.analysis.measurements.size() * spec.measurements;
        out.samples_from_cache = out.analysis.total_samples;
        obs::metrics().cache_extension_samples_saved_total.inc(
            out.samples_from_cache);
        out.stopset_rounds = std::move(lookup.manifest.stopset_rounds);
        out.rounds = out.stopset_rounds.size();
        if (!out.stored_clustering) {
            cache.store(spec, out.analysis.measurements, out.stopset_rounds,
                        &out.analysis.clustering);
        }
        return out;
    }

    if (lookup.kind == HitKind::Prefix) {
        // Re-run the ordinary measurement path with the cached samples
        // replayed as each algorithm's stream prefix: identical values in
        // identical order make every decision identical to a cold run, and
        // only draws beyond the prefix reach the executor.
        campaign::GlobalSampleSource bundle(spec);
        CachedSampleSource replay(bundle.source(), lookup.merged);
        if (spec.adaptive_coordinated) {
            campaign::CoordinatedCampaignResult coordinated =
                campaign::run_coordinated_campaign(spec, shard_count, replay,
                                                   workers);
            out.analysis = std::move(coordinated.analysis);
            out.stopset_rounds = std::move(coordinated.stopset_rounds);
            out.rounds = coordinated.rounds;
        } else {
            // cacheable() admitted this plan, so an adaptive one runs with
            // K == 1: the engine over the full global variant list, of
            // which a fixed-N plan is the one-round case.
            out.analysis =
                core::analyze_source(replay, spec.analysis_config(workers));
        }
        out.samples_from_cache = replay.served();
        cache.store(spec, out.analysis.measurements, out.stopset_rounds,
                    &out.analysis.clustering);
        return out;
    }

    // Miss: measure cold, publish the result for the next run.
    out = run_uncached(spec, shard_count, workers);
    cache.store(spec, out.analysis.measurements, out.stopset_rounds,
                &out.analysis.clustering);
    return out;
}

} // namespace relperf::cache
