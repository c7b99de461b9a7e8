#include "cache/cached_campaign.hpp"

#include "cache/cached_source.hpp"
#include "campaign/runner.hpp"
#include "obs/metrics.hpp"

#include <optional>
#include <utility>

namespace relperf::cache {

namespace {

/// A run_plan outcome as the cache reports it.
CachedRunResult from_run(campaign::CoordinatedCampaignResult run) {
    CachedRunResult out;
    out.analysis = std::move(run.analysis);
    out.stopset_rounds = std::move(run.stopset_rounds);
    out.rounds = run.rounds;
    return out;
}

} // namespace

bool cacheable(const campaign::CampaignSpec& spec, std::size_t shard_count) {
    return campaign::k_invariant(spec, shard_count);
}

CachedRunResult run_campaign_cached(const campaign::CampaignSpec& spec,
                                    ResultCache& cache,
                                    std::size_t shard_count,
                                    std::size_t workers) {
    // K is checked before the lookup, so a hit cannot hide a split that no
    // tier could run.
    const std::size_t count =
        campaign::split_plan(spec, shard_count).shard_count();
    if (!cache.config().enabled()) {
        return from_run(campaign::run_plan(spec, count, workers));
    }
    if (!cacheable(spec, count)) {
        // Not addressable by the plan hash: neither served nor stored.
        obs::metrics().cache_misses_total.inc();
        CachedRunResult out = from_run(campaign::run_plan(spec, count, workers));
        out.bypassed = true;
        return out;
    }

    CacheLookup lookup = cache.lookup(spec);
    if (lookup.kind == HitKind::Exact) {
        // Zero executor draws. A validated tally is the clustering itself;
        // without one, re-cluster under the spec's analysis knobs (the
        // same bits, a pure function of samples and knobs) and repair the
        // tally through the ordinary store.
        CachedRunResult out;
        out.cache = HitKind::Exact;
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

    // A prefix entry is replayed as each algorithm's stream prefix:
    // identical values in identical order make every decision identical to
    // a cold run, and only draws beyond the prefix reach the executor. A
    // miss measures cold. Either way the result is published for the next
    // run.
    std::optional<campaign::GlobalSampleSource> bundle;
    std::optional<CachedSampleSource> replay;
    if (lookup.kind == HitKind::Prefix) {
        replay.emplace(bundle.emplace(spec).source(), lookup.merged);
    }
    CachedRunResult out = from_run(campaign::run_plan(
        spec, count, workers, replay ? &*replay : nullptr));
    out.cache = lookup.kind;
    out.samples_from_cache = replay ? replay->served() : 0;
    cache.store(spec, out.analysis.measurements, out.stopset_rounds,
                &out.analysis.clustering);
    return out;
}

} // namespace relperf::cache
