#include "campaign/runner.hpp"

#include "campaign/merge.hpp"
#include "linalg/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/analytic.hpp"
#include "sim/executor.hpp"
#include "sim/real_executor.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/str.hpp"

#include <atomic>
#include <optional>

namespace relperf::campaign {

Sharder split_plan(const CampaignSpec& spec, std::size_t shard_count) {
    spec.validate();
    return Sharder(spec.variants().size(),
                   shard_count == 0 ? spec.shards : shard_count);
}

bool k_invariant(const CampaignSpec& spec, std::size_t shard_count) noexcept {
    return !spec.adaptive() || spec.adaptive_coordinated ||
           (shard_count == 0 ? spec.shards : shard_count) == 1;
}

ShardResult run_shard(const CampaignSpec& spec, std::size_t shard_index,
                      std::size_t shard_count) {
    // A lone shard cannot honor a coordinated plan: the stop decisions need
    // the merged view of all shards between rounds.
    RELPERF_REQUIRE(!spec.adaptive_coordinated,
                    "run_shard: the spec demands coordinated stopping, which "
                    "re-clusters the merged measurements of all shards "
                    "between rounds — run the campaign through "
                    "run_coordinated_campaign (relperf_cli --coordinated "
                    "--run) instead of per-shard execution");
    const Sharder sharder = split_plan(spec, shard_count);
    const std::size_t count = sharder.shard_count();
    const ShardPlan plan = sharder.plan(shard_index);
    // Built before the shard is counted: it fails up front when this build
    // cannot honor the plan's backends.
    GlobalSampleSource mine(spec, plan.assignment_indices);

    obs::Span span("shard.run", "campaign");
    span.arg("shard", static_cast<std::uint64_t>(shard_index))
        .arg("of", static_cast<std::uint64_t>(count));
    const obs::ScopedHistogramTimer shard_timer(
        obs::metrics().shard_seconds);
    obs::metrics().shards_total.inc();

    ShardResult result;
    result.manifest = shard_manifest(spec, shard_index, count);
    if (spec.adaptive()) {
        // Shard-local stopping: the engine clusters the shard's own
        // algorithms.
        core::AnalysisResult analysis =
            core::analyze_source(mine.source(), spec.analysis_config());
        result.measurements = std::move(analysis.measurements);
        result.manifest.samples_per_algorithm =
            std::move(analysis.samples_per_alg);
        return result;
    }
    // A fixed-N shard only measures. The engine's one-round plan would also
    // cluster it, and the campaign clusters the merged set anyway.
    // measure_all counts only actual draws; the plan cost is ours to report.
    obs::metrics().samples_fixed_n_total.inc(plan.assignment_indices.size() *
                                             spec.measurements);
    result.measurements = core::measure_all(mine.source(), spec.measurements);
    return result;
}

struct GlobalSampleSource::Impl {
    // Construction order matters: the executors hold references into the
    // model, and the source into an executor.
    std::optional<sim::AnalyticCostModel> model;
    std::optional<sim::SimulatedExecutor> sim_executor;
    std::optional<sim::RealExecutor> real_executor;
    std::unique_ptr<core::SampleSource> source;
};

GlobalSampleSource::GlobalSampleSource(
    const CampaignSpec& spec, const std::vector<std::size_t>& global_indices)
    : impl_(std::make_unique<Impl>()) {
    spec.validate();
    // This object measures, so the plan's backends must exist in this build
    // (validate() deliberately does not check availability: a collecting
    // host without the backends must still be able to merge).
    (void)linalg::backend(spec.backend);
    for (const std::string& name : spec.variant_backends) {
        (void)linalg::backend(name);
    }
    std::vector<workloads::VariantAssignment> all = spec.variants();
    std::vector<workloads::VariantAssignment> variants;
    variants.reserve(global_indices.size());
    for (const std::size_t global : global_indices) {
        RELPERF_REQUIRE(global < all.size(),
                        str::format("GlobalSampleSource: variant index %zu is "
                                    "out of range (the plan has %zu)",
                                    global, all.size()));
        variants.push_back(all[global]);
    }
    if (global_indices.empty()) variants = std::move(all);
    if (spec.executor == ExecutorKind::Sim) {
        impl_->model.emplace(platform_preset(spec.platform));
        impl_->sim_executor.emplace(*impl_->model, sim::NoiseModel{});
        impl_->source = std::make_unique<core::SimSampleSource>(
            *impl_->sim_executor, spec.chain(), std::move(variants),
            spec.measurement_seed, global_indices);
        return;
    }
    const sim::EmulatedDevice device{spec.device_threads, 0.0, 0.0};
    const sim::EmulatedDevice accelerator{spec.accelerator_threads,
                                          spec.dispatch_delay_us * 1e-6,
                                          spec.switch_delay_us * 1e-6};
    impl_->real_executor.emplace(device, accelerator);
    impl_->source = std::make_unique<core::RealSampleSource>(
        *impl_->real_executor, spec.chain(), std::move(variants),
        spec.measurement_seed, global_indices, spec.warmup);
}

GlobalSampleSource::~GlobalSampleSource() = default;

core::SampleSource& GlobalSampleSource::source() { return *impl_->source; }

CoordinatedCampaignResult run_plan(const CampaignSpec& spec,
                                   std::size_t shard_count,
                                   std::size_t workers,
                                   core::SampleSource* source) {
    const Sharder sharder = split_plan(spec, shard_count);
    const std::size_t count = sharder.shard_count();
    CoordinatedCampaignResult out;
    if (source == nullptr && !(spec.adaptive() && k_invariant(spec, count))) {
        // Fixed N, or shard-local stopping on K > 1 shards: measure the
        // shards, merge them and cluster the merged set once.
        const std::vector<ShardResult> shards =
            LocalShardRunner(workers).run(spec, count);
        out.analysis = core::analyze_measurements(
            merge_shards(spec, shards), spec.analysis_config(workers));
        // analyze_measurements cannot know the plan's cap; restore the true
        // fixed-N cost so the adaptive savings stay visible.
        out.analysis.fixed_n_samples =
            out.analysis.measurements.size() * spec.measurements;
        return out;
    }

    // One engine over the full variant list. For a coordinated plan the
    // coordinator owns the round loop conceptually, not mechanically: every
    // variant draws from the stream of its *global* index, so "collect all
    // shards' measurements, re-cluster the merged set, broadcast the
    // stop-set" is value-identical to this engine run — the merged
    // clustering IS the engine's per-round clustering, and the global
    // stop-set IS its frozen set. The observer is where the broadcast
    // becomes observable: one coordination round and K stop-set broadcasts
    // per clustering, recorded in the stop-set history.
    std::optional<GlobalSampleSource> own;
    if (source == nullptr) source = &own.emplace(spec).source();
    RELPERF_REQUIRE(source->count() == sharder.assignment_count(),
                    "run_plan: the sample source must enumerate the spec's "
                    "full global variant list");
    core::RoundObserver observer;
    if (spec.adaptive_coordinated) {
        observer = [&](const core::EngineRound& r) {
            obs::Span round("campaign.coordinate", "campaign");
            round.arg("round", static_cast<std::uint64_t>(r.round))
                .arg("shards", static_cast<std::uint64_t>(count))
                .arg("newly_stopped",
                     static_cast<std::uint64_t>(r.newly_stopped))
                .arg("stopset", static_cast<std::uint64_t>(r.stopped_total))
                .arg("active", static_cast<std::uint64_t>(r.active));
            obs::metrics().coordination_rounds.inc();
            // The global stop-set goes out to every shard each round.
            obs::metrics().stopset_broadcast_total.inc(count);
            out.stopset_rounds.push_back(r.stopped_total);
        };
    }
    // The engine's published clustering is exactly what
    // analyze_measurements would produce on the final measurements.
    out.analysis =
        core::analyze_source(*source, spec.analysis_config(workers), observer);
    out.rounds = out.stopset_rounds.size();
    return out;
}

CoordinatedCampaignResult run_coordinated_campaign(const CampaignSpec& spec,
                                                   std::size_t shard_count,
                                                   std::size_t workers) {
    RELPERF_REQUIRE(spec.adaptive(),
                    "run_coordinated_campaign: spec is fixed-N — coordinated "
                    "stopping needs an adaptive plan "
                    "(adaptive_min_measurements)");
    RELPERF_REQUIRE(spec.adaptive_coordinated,
                    "run_coordinated_campaign: spec does not declare "
                    "'adaptive_coordination = coordinated' — the key is part "
                    "of the measurement plan and must be recorded");
    return run_plan(spec, shard_count, workers);
}

LocalShardRunner::LocalShardRunner(std::size_t workers)
    : workers_(support::resolve_workers(workers)) {}

std::vector<ShardResult> LocalShardRunner::run(const CampaignSpec& spec,
                                               std::size_t shard_count) const {
    // Checks K against the variant count before spawning anything.
    const std::size_t count = split_plan(spec, shard_count).shard_count();

    // Real campaigns measure wall-clock time on this machine: concurrent
    // shards would measure each other's contention, so run them serially.
    const std::size_t threads =
        spec.executor == ExecutorKind::Real ? 1 : workers_;

    std::vector<ShardResult> results(count);
    std::atomic<std::size_t> done{0};
    obs::report_progress("shards", 0, count);
    support::parallel_for(count, threads, [&](std::size_t i) {
        results[i] = run_shard(spec, i, count);
        obs::report_progress("shards", done.fetch_add(1) + 1, count);
    });
    return results;
}

} // namespace relperf::campaign
