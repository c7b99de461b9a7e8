//! The campaign subsystem's core guarantees, asserted end to end:
//!
//!  * K = 1 equals the unsharded pipeline measurement-for-measurement;
//!  * every K produces the same merged measurements, in any shard order;
//!  * the sharded + merged clustering is EXACTLY the clustering of the
//!    single-process core::analyze_chain run (the ISSUE acceptance check);
//!  * merging rejects foreign, duplicate and missing shards;
//!  * the parallel LocalShardRunner agrees with serial execution;
//!  * a GlobalSampleSource over any global indices draws the full list's rows;
//!  * the CSV persistence round-trip changes nothing.

#include "campaign/campaign.hpp"

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/analytic.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>

namespace campaign = relperf::campaign;
namespace core = relperf::core;
namespace obs = relperf::obs;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;

namespace {

campaign::CampaignSpec small_spec() {
    campaign::CampaignSpec spec;
    spec.name = "gtest-campaign";
    spec.sizes = {32, 64, 128};
    spec.iters = 4;
    spec.platform = "paper-cpu-gpu";
    spec.measurements = 15;
    spec.measurement_seed = 1234;
    spec.clustering_repetitions = 50;
    spec.clustering_seed = 99;
    return spec;
}

/// The single-process reference: core::analyze_chain over the same plan.
core::AnalysisResult reference_run(const campaign::CampaignSpec& spec) {
    const sim::AnalyticCostModel model(campaign::platform_preset(spec.platform));
    const sim::SimulatedExecutor executor(model, sim::NoiseModel{});
    return core::analyze_chain(executor, spec.chain(), spec.variants(),
                               spec.analysis_config());
}

void expect_sets_identical(const core::MeasurementSet& a,
                           const core::MeasurementSet& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.name(i), b.name(i));
        const auto sa = a.samples(i);
        const auto sb = b.samples(i);
        ASSERT_EQ(sa.size(), sb.size()) << a.name(i);
        for (std::size_t k = 0; k < sa.size(); ++k) {
            EXPECT_EQ(sa[k], sb[k]) << a.name(i) << " sample " << k;
        }
    }
}

void expect_clusterings_identical(const core::Clustering& a,
                                  const core::Clustering& b) {
    ASSERT_EQ(a.cluster_count(), b.cluster_count());
    ASSERT_EQ(a.final_assignment.size(), b.final_assignment.size());
    for (std::size_t alg = 0; alg < a.final_assignment.size(); ++alg) {
        EXPECT_EQ(a.final_assignment[alg].rank, b.final_assignment[alg].rank)
            << "alg " << alg;
        EXPECT_DOUBLE_EQ(a.final_assignment[alg].score,
                         b.final_assignment[alg].score)
            << "alg " << alg;
        for (int rank = 1; rank <= a.cluster_count(); ++rank) {
            EXPECT_DOUBLE_EQ(a.score_of(alg, rank), b.score_of(alg, rank))
                << "alg " << alg << " rank " << rank;
        }
    }
}

} // namespace

TEST(Campaign, SingleShardEqualsUnshardedPipelineMeasurementForMeasurement) {
    const campaign::CampaignSpec spec = small_spec();
    const campaign::ShardResult shard = campaign::run_shard(spec, 0, 1);
    const core::MeasurementSet merged = campaign::merge_shards(spec, {shard});
    expect_sets_identical(merged, reference_run(spec).measurements);
}

TEST(Campaign, EveryShardCountReproducesTheUnshardedMeasurements) {
    const campaign::CampaignSpec spec = small_spec();
    const core::MeasurementSet reference = reference_run(spec).measurements;
    for (const std::size_t k : {2u, 3u, 5u, 8u}) {
        std::vector<campaign::ShardResult> shards;
        for (std::size_t i = 0; i < k; ++i) {
            shards.push_back(campaign::run_shard(spec, i, k));
        }
        const core::MeasurementSet merged = campaign::merge_shards(spec, shards);
        expect_sets_identical(merged, reference);
    }
}

TEST(Campaign, ShardOrderDoesNotMatter) {
    const campaign::CampaignSpec spec = small_spec();
    std::vector<campaign::ShardResult> shards;
    for (std::size_t i = 0; i < 4; ++i) {
        shards.push_back(campaign::run_shard(spec, i, 4));
    }
    const core::MeasurementSet in_order = campaign::merge_shards(spec, shards);

    std::mt19937 gen(7);
    for (int round = 0; round < 5; ++round) {
        std::shuffle(shards.begin(), shards.end(), gen);
        expect_sets_identical(campaign::merge_shards(spec, shards), in_order);
    }
}

TEST(Campaign, ShardedMergedClusteringEqualsAnalyzeChainExactly) {
    // Run every shard, merge, cluster: the result must be the exact
    // clustering of the single-process core::analyze_chain run of the same
    // plan, for every shard count and every worker count (shard threads and
    // clustering threads alike).
    const campaign::CampaignSpec spec = small_spec();
    const core::AnalysisResult reference = reference_run(spec);
    for (const std::size_t workers : {1u, 4u}) {
        for (const std::size_t k : {1u, 2u, 4u, 7u}) {
            SCOPED_TRACE("K = " + std::to_string(k) +
                         ", workers = " + std::to_string(workers));
            const core::AnalysisResult sharded =
                campaign::run_campaign(spec, k, workers);
            expect_clusterings_identical(sharded.clustering,
                                         reference.clustering);
        }
    }
}

TEST(Campaign, CsvRoundTripPreservesTheExactClustering) {
    // Same acceptance check, through the on-disk path the CLI uses: write
    // every shard to a CSV file, read them back, merge, cluster.
    const campaign::CampaignSpec spec = small_spec();
    std::vector<std::string> paths;
    std::vector<campaign::ShardResult> loaded;
    for (std::size_t i = 0; i < 3; ++i) {
        const campaign::ShardResult shard = campaign::run_shard(spec, i, 3);
        paths.push_back(testing::TempDir() +
                        "relperf_campaign_shard_" + std::to_string(i) + ".csv");
        campaign::write_shard_csv(shard, paths.back());
        loaded.push_back(campaign::read_shard_csv(paths.back()));
    }
    core::MeasurementSet merged = campaign::merge_shards(spec, loaded);
    for (const std::string& path : paths) std::remove(path.c_str());

    const core::AnalysisResult reference = reference_run(spec);
    expect_sets_identical(merged, reference.measurements);
    const core::AnalysisResult result =
        core::analyze_measurements(std::move(merged), spec.analysis_config());
    expect_clusterings_identical(result.clustering, reference.clustering);
}

TEST(Campaign, ParallelRunnerAgreesWithSerialExecution) {
    const campaign::CampaignSpec spec = small_spec();
    const std::vector<campaign::ShardResult> serial =
        campaign::LocalShardRunner(1).run(spec, 4);
    const std::vector<campaign::ShardResult> parallel =
        campaign::LocalShardRunner(4).run(spec, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].manifest.shard_index, i);
        expect_sets_identical(parallel[i].measurements, serial[i].measurements);
    }
}

TEST(Campaign, MergeRejectsForeignShards) {
    const campaign::CampaignSpec spec = small_spec();
    campaign::CampaignSpec foreign = spec;
    foreign.measurement_seed += 1;

    std::vector<campaign::ShardResult> shards;
    shards.push_back(campaign::run_shard(spec, 0, 2));
    shards.push_back(campaign::run_shard(foreign, 1, 2));
    EXPECT_THROW((void)campaign::merge_shards(spec, shards), relperf::Error);
}

TEST(Campaign, MergeRejectsDuplicateAndMissingShards) {
    const campaign::CampaignSpec spec = small_spec();
    const campaign::ShardResult s0 = campaign::run_shard(spec, 0, 2);
    const campaign::ShardResult s1 = campaign::run_shard(spec, 1, 2);

    EXPECT_THROW((void)campaign::merge_shards(spec, {s0, s0}), relperf::Error);
    EXPECT_THROW((void)campaign::merge_shards(spec, {s0}), relperf::Error);
    EXPECT_THROW((void)campaign::merge_shards(spec, {}), relperf::Error);
    // Mixing shards of different splits (1/2 with 2/3) is rejected too.
    const campaign::ShardResult other = campaign::run_shard(spec, 2, 3);
    EXPECT_THROW((void)campaign::merge_shards(spec, {s0, other}),
                 relperf::Error);
    // The valid set still merges.
    EXPECT_NO_THROW((void)campaign::merge_shards(spec, {s1, s0}));
}

TEST(Campaign, MergeRejectsTamperedShardContents) {
    const campaign::CampaignSpec spec = small_spec();
    campaign::ShardResult s0 = campaign::run_shard(spec, 0, 2);
    const campaign::ShardResult s1 = campaign::run_shard(spec, 1, 2);

    // Rebuild s0 with one sample dropped from its first algorithm: the
    // sample-count check must fire.
    core::MeasurementSet tampered;
    for (std::size_t i = 0; i < s0.measurements.size(); ++i) {
        auto samples = std::vector<double>(s0.measurements.samples(i).begin(),
                                           s0.measurements.samples(i).end());
        if (i == 0) samples.pop_back();
        tampered.add(s0.measurements.name(i), std::move(samples));
    }
    s0.measurements = std::move(tampered);
    EXPECT_THROW((void)campaign::merge_shards(spec, {s0, s1}), relperf::Error);
}

TEST(Campaign, BackendChangesThePlanHash) {
    // Two specs identical except for `backend` are different measurement
    // plans: same algorithm on a different backend is a different variant.
    const campaign::CampaignSpec portable = small_spec();
    campaign::CampaignSpec reference = small_spec();
    reference.backend = "reference";
    EXPECT_NE(portable.hash(), reference.hash());

    // The default backend hashes like a pre-backend spec did (the field is
    // omitted from the plan text), so old shard files remain mergeable.
    campaign::CampaignSpec explicit_default = small_spec();
    explicit_default.backend = "portable";
    EXPECT_EQ(portable.hash(), explicit_default.hash());
}

TEST(Campaign, MergeRejectsCrossBackendShardsWithAClearError) {
    const campaign::CampaignSpec spec = small_spec();
    campaign::CampaignSpec other = small_spec();
    other.backend = "reference";

    std::vector<campaign::ShardResult> shards;
    shards.push_back(campaign::run_shard(spec, 0, 2));
    shards.push_back(campaign::run_shard(other, 1, 2));
    try {
        (void)campaign::merge_shards(spec, shards);
        FAIL() << "expected a cross-backend merge to be rejected";
    } catch (const relperf::Error& e) {
        const std::string message = e.what();
        // The error must name the backends, not just a hash mismatch.
        EXPECT_NE(message.find("backend"), std::string::npos) << message;
        EXPECT_NE(message.find("reference"), std::string::npos) << message;
        EXPECT_NE(message.find("portable"), std::string::npos) << message;
    }
}

TEST(Campaign, MergeNamesTheDifferingPlanKey) {
    campaign::CampaignSpec fixed = small_spec();
    fixed.sizes = {32, 64};
    fixed.measurements = 6;
    campaign::CampaignSpec adaptive = fixed;
    adaptive.adaptive_min = 2;
    adaptive.adaptive_batch = 2;
    adaptive.adaptive_stability = 1;
    const auto value_of = [](const campaign::CampaignSpec& spec,
                             const std::string& key) -> std::string {
        for (const auto& [k, v] : spec.entries()) {
            if (k == key) return v;
        }
        return "absent";
    };
    // Only the manifest differs: the rows are the merging plan's own.
    const auto shard_of = [](const campaign::CampaignSpec& producer,
                             const campaign::CampaignSpec& rows) {
        campaign::ShardResult shard;
        shard.manifest = campaign::shard_manifest(producer, 0, 1);
        shard.measurements = campaign::run_shard(rows, 0, 1).measurements;
        return shard;
    };
    const auto refusal = [](const campaign::CampaignSpec& spec,
                            const campaign::ShardResult& shard) {
        try {
            (void)campaign::merge_shards(spec, {shard});
        } catch (const relperf::Error& e) {
            return std::string(e.what());
        }
        return std::string();
    };

    struct Case {
        const campaign::CampaignSpec* base;
        std::string key;
        std::string value;
    };
    const std::vector<Case> hashed = {
        {&fixed, "sizes", "32,96"},
        {&fixed, "iters", "5"},
        {&fixed, "platform", "rpi-server"},
        {&fixed, "backend", "reference"},
        {&fixed, "variant_backends", "portable,reference"},
        {&fixed, "measurements", "8"},
        {&fixed, "measurement_seed", "77"},
        {&adaptive, "adaptive_min_measurements", "4"},
        {&adaptive, "adaptive_batch", "1"},
        {&adaptive, "adaptive_stability_rounds", "2"},
        {&adaptive, "adaptive_coordination", "coordinated"},
        {&adaptive, "adaptive_confidence", "0.9"},
        // An adaptive plan's stops consult the clusterer, so its analysis
        // knobs are plan keys too.
        {&adaptive, "clustering_seed", "7"},
    };
    for (const Case& c : hashed) {
        const campaign::CampaignSpec& base = *c.base;
        campaign::CampaignSpec other = base;
        ASSERT_TRUE(other.set(c.key, c.value)) << c.key;
        const std::string was = value_of(base, c.key);
        // Both directions: the other plan's shard under the base spec, and
        // the base plan's shard under the other spec.
        const std::string forward = refusal(base, shard_of(other, base));
        EXPECT_NE(forward.find(c.key + " = " + c.value + " (this spec: " +
                               was + ")"),
                  std::string::npos)
            << c.key << ": " << forward;
        const std::string backward = refusal(other, shard_of(base, base));
        EXPECT_NE(backward.find(c.key + " = " + was + " (this spec: " +
                                c.value + ")"),
                  std::string::npos)
            << c.key << ": " << backward;
    }

    // The label, the shard count and a fixed-N plan's analysis knobs stay
    // out of hash(), so they stay out of the verdict.
    const std::vector<Case> unhashed = {
        {&fixed, "campaign", "renamed"},
        {&fixed, "shards", "3"},
        {&fixed, "clustering_repetitions", "7"},
        {&fixed, "clustering_seed", "7"},
        {&fixed, "bootstrap_rounds", "7"},
        {&fixed, "tie_epsilon", "0.1"},
        {&fixed, "decision_threshold", "0.75"},
    };
    for (const Case& c : unhashed) {
        campaign::CampaignSpec other = fixed;
        ASSERT_TRUE(other.set(c.key, c.value)) << c.key;
        EXPECT_EQ(refusal(fixed, shard_of(other, fixed)), "") << c.key;
    }
}

TEST(Campaign, NonDefaultBackendCampaignMergesAndMatchesItself) {
    // A reference-backend campaign shards and merges exactly like a portable
    // one; for the Sim executor the measured values do not depend on the
    // backend (the analytic model times the math, not the kernels), so this
    // checks the full plumbing end to end.
    campaign::CampaignSpec spec = small_spec();
    spec.backend = "reference";
    const core::MeasurementSet reference = reference_run(spec).measurements;
    std::vector<campaign::ShardResult> shards;
    for (std::size_t i = 0; i < 3; ++i) {
        shards.push_back(campaign::run_shard(spec, i, 3));
        EXPECT_EQ(shards.back().manifest.plan, spec.entries());
    }
    expect_sets_identical(campaign::merge_shards(spec, shards), reference);
}

TEST(Campaign, RunShardRejectsUnavailableBackend) {
    campaign::CampaignSpec spec = small_spec();
    spec.backend = "warp-core";
    // validate() accepts it (merge-only hosts need no kernels)...
    EXPECT_NO_THROW(spec.validate());
    // ...but measuring a shard on this build must fail up front, before the
    // shard is counted.
    obs::set_metrics_enabled(true);
    const std::uint64_t shards_before = obs::metrics().shards_total.value();
    EXPECT_THROW((void)campaign::run_shard(spec, 0, 2),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)campaign::LocalShardRunner(1).run(spec, 2),
                 relperf::InvalidArgument);
    EXPECT_EQ(obs::metrics().shards_total.value(), shards_before);
    obs::set_metrics_enabled(false);
}

TEST(Campaign, GlobalSampleSourceSubsetDrawsTheGlobalStreams) {
    // Each variant of a subset draws on the stream of its global index, so
    // the subset reproduces the matching rows of the full list bit for bit.
    const campaign::CampaignSpec spec = small_spec();
    const std::vector<std::size_t> picked = {1, 3, 5};
    campaign::GlobalSampleSource full(spec);
    campaign::GlobalSampleSource subset(spec, picked);
    const core::MeasurementSet all = core::measure_all(full.source(), 6);
    const core::MeasurementSet some = core::measure_all(subset.source(), 6);
    ASSERT_EQ(some.size(), picked.size());
    for (std::size_t row = 0; row < picked.size(); ++row) {
        EXPECT_EQ(some.name(row), all.name(picked[row]));
        const auto a = all.samples(picked[row]);
        const auto b = some.samples(row);
        EXPECT_EQ(std::vector<double>(b.begin(), b.end()),
                  std::vector<double>(a.begin(), a.end()))
            << some.name(row);
    }

    const std::size_t count = spec.variants().size();
    const std::vector<std::size_t> past_end = {1, count};
    EXPECT_THROW((void)campaign::GlobalSampleSource(spec, past_end),
                 relperf::InvalidArgument);
}

TEST(Campaign, ParallelRunnerErrorPathIsRaceFreeAndRethrowsOnce) {
    // Regression guard for the LocalShardRunner error path: with more
    // workers than cores every worker hits the throwing run_shard
    // concurrently, so the per-shard exception slots and the atomic `next`
    // drain race if they are ever unsynchronized (TSan covers this test in
    // CI). Exactly one of the concurrent exceptions must come back out.
    campaign::CampaignSpec spec = small_spec();
    spec.backend = "warp-core";
    for (int round = 0; round < 5; ++round) {
        EXPECT_THROW((void)campaign::LocalShardRunner(8).run(spec, 8),
                     relperf::InvalidArgument);
    }
}

TEST(Campaign, ParallelRunnerHandlesMoreWorkersThanShards) {
    // Workers beyond the shard count must drain the queue and exit without
    // touching results out of range; the survivors' output is bit-identical
    // to the serial run.
    const campaign::CampaignSpec spec = small_spec();
    const std::vector<campaign::ShardResult> serial =
        campaign::LocalShardRunner(1).run(spec, 2);
    const std::vector<campaign::ShardResult> crowded =
        campaign::LocalShardRunner(16).run(spec, 2);
    ASSERT_EQ(serial.size(), crowded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expect_sets_identical(crowded[i].measurements, serial[i].measurements);
    }
}

TEST(Campaign, RealExecutorCampaignRunsAndMerges) {
    campaign::CampaignSpec spec;
    spec.name = "gtest-real";
    spec.executor = campaign::ExecutorKind::Real;
    spec.sizes = {12, 16};
    spec.iters = 1;
    spec.measurements = 2;
    spec.warmup = 0;
    spec.device_threads = 1;
    spec.accelerator_threads = 1;
    spec.dispatch_delay_us = 0.0;
    spec.switch_delay_us = 0.0;
    spec.clustering_repetitions = 10;

    const std::vector<campaign::ShardResult> shards =
        campaign::LocalShardRunner(2).run(spec, 2);
    const core::MeasurementSet merged = campaign::merge_shards(spec, shards);
    ASSERT_EQ(merged.size(), 4u);
    for (std::size_t i = 0; i < merged.size(); ++i) {
        for (const double s : merged.samples(i)) EXPECT_GT(s, 0.0);
    }
}

namespace {

campaign::CampaignSpec adaptive_spec() {
    campaign::CampaignSpec spec = small_spec();
    spec.measurements = 20;
    spec.adaptive_min = 6;
    spec.adaptive_batch = 4;
    spec.adaptive_stability = 2;
    return spec;
}

} // namespace

TEST(CampaignAdaptive, EndToEndSavesMeasurementsAndKeepsMembership) {
    const campaign::CampaignSpec fixed = [&] {
        campaign::CampaignSpec spec = small_spec();
        spec.measurements = 20;
        return spec;
    }();
    const campaign::CampaignSpec adaptive = adaptive_spec();

    const core::AnalysisResult full = campaign::run_campaign(fixed, 2, 1);
    const core::AnalysisResult early = campaign::run_campaign(adaptive, 2, 1);

    // The acceptance criterion: fewer total measurements, same final
    // performance-class membership.
    EXPECT_LT(early.measurements.total_samples(),
              full.measurements.total_samples());
    // run_campaign restores the true fixed-N cost, so the result's own
    // counters quantify the savings.
    EXPECT_EQ(early.fixed_n_samples,
              early.measurements.size() * adaptive.measurements);
    EXPECT_LT(early.total_samples, early.fixed_n_samples);
    ASSERT_EQ(early.clustering.final_assignment.size(),
              full.clustering.final_assignment.size());
    for (std::size_t alg = 0; alg < full.clustering.final_assignment.size();
         ++alg) {
        EXPECT_EQ(early.clustering.final_rank(alg),
                  full.clustering.final_rank(alg))
            << full.measurements.name(alg);
    }
}

TEST(CampaignAdaptive, ShardManifestsCarryThePlanAndTheCounts) {
    const campaign::CampaignSpec spec = adaptive_spec();
    const campaign::ShardResult shard = campaign::run_shard(spec, 0, 2);
    EXPECT_EQ(shard.manifest.plan, spec.entries());
    ASSERT_EQ(shard.manifest.samples_per_algorithm.size(),
              shard.measurements.size());
    for (std::size_t i = 0; i < shard.measurements.size(); ++i) {
        EXPECT_EQ(shard.manifest.samples_per_algorithm[i],
                  shard.measurements.samples(i).size());
        EXPECT_GE(shard.measurements.samples(i).size(), spec.adaptive_min);
        EXPECT_LE(shard.measurements.samples(i).size(), spec.measurements);
    }
    // Fixed-N shards carry no adaptive entries and no counts.
    const campaign::ShardResult fixed = campaign::run_shard(small_spec(), 0, 2);
    EXPECT_EQ(fixed.manifest.plan, small_spec().entries());
    EXPECT_TRUE(fixed.manifest.samples_per_algorithm.empty());
}

TEST(CampaignAdaptive, MergeRejectsMixedAdaptivePlans) {
    const campaign::CampaignSpec fixed = small_spec();
    campaign::CampaignSpec adaptive = small_spec();
    adaptive.adaptive_min = 6;
    adaptive.adaptive_batch = 4;

    const campaign::ShardResult f0 = campaign::run_shard(fixed, 0, 2);
    const campaign::ShardResult f1 = campaign::run_shard(fixed, 1, 2);
    const campaign::ShardResult a0 = campaign::run_shard(adaptive, 0, 2);
    const campaign::ShardResult a1 = campaign::run_shard(adaptive, 1, 2);

    // Fixed shards under an adaptive spec, adaptive shards under a fixed
    // spec, and a mix — all rejected with the adaptive-plan message.
    EXPECT_THROW((void)campaign::merge_shards(adaptive, {f0, f1}),
                 relperf::Error);
    EXPECT_THROW((void)campaign::merge_shards(fixed, {a0, a1}),
                 relperf::Error);
    EXPECT_THROW((void)campaign::merge_shards(adaptive, {a0, f1}),
                 relperf::Error);
    // Differing knobs are a different plan even with adaptive on both sides.
    campaign::CampaignSpec other = adaptive;
    other.adaptive_batch += 1;
    EXPECT_THROW((void)campaign::merge_shards(other, {a0, a1}),
                 relperf::Error);
    EXPECT_NO_THROW((void)campaign::merge_shards(adaptive, {a0, a1}));
}

TEST(CampaignAdaptive, MergeRejectsCountsThePlanCannotReach) {
    const campaign::CampaignSpec spec = adaptive_spec(); // min 6, batch 4
    campaign::ShardResult s0 = campaign::run_shard(spec, 0, 2);
    const campaign::ShardResult s1 = campaign::run_shard(spec, 1, 2);

    // Rebuild s0 with one sample dropped from its first algorithm: the
    // count 6 + k*4 arithmetic no longer works out.
    core::MeasurementSet tampered;
    for (std::size_t i = 0; i < s0.measurements.size(); ++i) {
        auto samples = std::vector<double>(s0.measurements.samples(i).begin(),
                                           s0.measurements.samples(i).end());
        if (i == 0) samples.pop_back();
        tampered.add(s0.measurements.name(i), std::move(samples));
    }
    s0.measurements = std::move(tampered);
    EXPECT_THROW((void)campaign::merge_shards(spec, {s0, s1}), relperf::Error);
}

TEST(CampaignAdaptive, SingleShardRunClustersOncePerRound) {
    // One shard-local shard is the engine over the whole plan, whose last
    // clustering is the merged set's: run_campaign must not cluster again,
    // and must return what a shard plus a re-clustering of its rows did.
    const campaign::CampaignSpec spec = adaptive_spec();
    obs::registry().reset_values();
    obs::set_metrics_enabled(true);
    const core::AnalysisResult once = campaign::run_campaign(spec, 1, 2);
    const std::uint64_t rounds = obs::metrics().adaptive_rounds.value();
    const std::uint64_t clusterings = obs::metrics().clusterings_total.value();
    obs::set_metrics_enabled(false);
    obs::registry().reset_values();
    EXPECT_GT(rounds, 1u);
    EXPECT_EQ(clusterings, rounds);

    const campaign::ShardResult shard = campaign::run_shard(spec, 0, 1);
    const core::AnalysisResult twice = core::analyze_measurements(
        campaign::merge_shards(spec, {shard}), spec.analysis_config());
    expect_sets_identical(once.measurements, twice.measurements);
    expect_clusterings_identical(once.clustering, twice.clustering);
    EXPECT_EQ(once.samples_per_alg, shard.manifest.samples_per_algorithm);
    EXPECT_EQ(once.total_samples, twice.total_samples);
    EXPECT_EQ(once.fixed_n_samples,
              once.measurements.size() * spec.measurements);
}

namespace {

campaign::CampaignSpec coordinated_spec() {
    campaign::CampaignSpec spec = adaptive_spec();
    spec.adaptive_coordinated = true;
    return spec;
}

} // namespace

TEST(CampaignCoordinated, CountsAreKInvariantAndStopHistoryAgrees) {
    // The coordinator's stop decisions watch the merged clustering, so the
    // per-algorithm counts, the round count, the stop-set history and the
    // final clustering must not depend on how the campaign is split — under
    // the stability rule (confidence 0) and the confidence rule alike.
    for (const double confidence : {0.0, 0.95}) {
        SCOPED_TRACE("adaptive_confidence = " + std::to_string(confidence));
        campaign::CampaignSpec spec = coordinated_spec();
        spec.adaptive_confidence = confidence;
        const campaign::CoordinatedCampaignResult k1 =
            campaign::run_coordinated_campaign(spec, 1);
        EXPECT_LT(k1.analysis.total_samples, k1.analysis.fixed_n_samples);
        ASSERT_FALSE(k1.stopset_rounds.empty());
        EXPECT_EQ(k1.stopset_rounds.size(), k1.rounds);
        // The final broadcast stops everyone.
        EXPECT_EQ(k1.stopset_rounds.back(), k1.analysis.measurements.size());

        for (const std::size_t k : {2u, 4u, 8u}) {
            const campaign::CoordinatedCampaignResult kr =
                campaign::run_coordinated_campaign(spec, k);
            EXPECT_EQ(kr.analysis.samples_per_alg, k1.analysis.samples_per_alg)
                << "K = " << k;
            EXPECT_EQ(kr.rounds, k1.rounds);
            EXPECT_EQ(kr.stopset_rounds, k1.stopset_rounds);
            expect_sets_identical(kr.analysis.measurements,
                                  k1.analysis.measurements);
            expect_clusterings_identical(kr.analysis.clustering,
                                         k1.analysis.clustering);
        }
    }
}

TEST(CampaignCoordinated, SingleShardEqualsShardLocalBitForBit) {
    // With K = 1 the merged clustering IS the shard's clustering, so
    // coordinated and shard-local stopping see identical inputs and must
    // make identical decisions — measurement for measurement.
    const campaign::CampaignSpec coordinated = coordinated_spec();
    const campaign::CampaignSpec shard_local = adaptive_spec();
    const campaign::CoordinatedCampaignResult coord =
        campaign::run_coordinated_campaign(coordinated, 1);
    const campaign::ShardResult local = campaign::run_shard(shard_local, 0, 1);
    expect_sets_identical(coord.analysis.measurements, local.measurements);
    EXPECT_EQ(coord.analysis.samples_per_alg,
              local.manifest.samples_per_algorithm);
}

namespace {

/// A coordinated run persisted the way the result cache stores one: a
/// single shard whose manifest comes from the shared builder.
campaign::ShardResult coordinated_shard(
    const campaign::CampaignSpec& spec,
    const campaign::CoordinatedCampaignResult& coord) {
    campaign::ShardResult shard;
    shard.manifest = campaign::shard_manifest(spec, 0, 1);
    shard.manifest.stopset_rounds = coord.stopset_rounds;
    shard.measurements = coord.analysis.measurements;
    return shard;
}

} // namespace

TEST(CampaignCoordinated, ShardManifestsCarryThePlanAndMergeRoundTrips) {
    const campaign::CampaignSpec spec = [] {
        campaign::CampaignSpec s = coordinated_spec();
        s.adaptive_confidence = 0.95;
        return s;
    }();
    const campaign::CoordinatedCampaignResult coord =
        campaign::run_coordinated_campaign(spec, 3);

    // Through the on-disk shard file, like a later exact cache hit.
    const std::string path = testing::TempDir() + "relperf_coord_shard.csv";
    campaign::write_shard_csv(coordinated_shard(spec, coord), path);
    const campaign::ShardResult loaded = campaign::read_shard_csv(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.manifest.plan, spec.entries());
    EXPECT_EQ(loaded.manifest.stopset_rounds, coord.stopset_rounds);
    EXPECT_EQ(loaded.manifest.spec_hash, spec.hash());
    // The writer derives the truncation canary from the rows.
    EXPECT_EQ(loaded.manifest.samples_per_algorithm,
              coord.analysis.samples_per_alg);
    expect_sets_identical(campaign::merge_shards(spec, {loaded}),
                          coord.analysis.measurements);
}

TEST(CampaignCoordinated, MergeRejectsMismatchedCoordinationPlans) {
    const campaign::CampaignSpec spec = coordinated_spec();
    const campaign::CoordinatedCampaignResult coord =
        campaign::run_coordinated_campaign(spec, 2);
    const campaign::ShardResult shard = coordinated_shard(spec, coord);
    const auto entry = [](campaign::ShardResult& s, const std::string& key) {
        return std::find_if(s.manifest.plan.begin(), s.manifest.plan.end(),
                            [&](const campaign::SpecEntry& e) {
                                return e.first == key;
                            });
    };

    // A shard-local shard under a coordinated spec (the manifest hash still
    // matches: only the recorded plan gives it away), and vice versa.
    campaign::ShardResult edited = shard;
    edited.manifest.plan.erase(entry(edited, "adaptive_coordination"));
    EXPECT_THROW((void)campaign::merge_shards(spec, {edited}), relperf::Error);
    const campaign::CampaignSpec shard_local = adaptive_spec();
    EXPECT_THROW((void)campaign::merge_shards(shard_local, {shard}),
                 relperf::Error);

    // A shard that stopped on a different rule.
    edited = shard;
    edited.manifest.plan.insert(entry(edited, "device_threads"),
                                {"adaptive_confidence", "0.99"});
    EXPECT_THROW((void)campaign::merge_shards(spec, {edited}), relperf::Error);

    EXPECT_NO_THROW((void)campaign::merge_shards(spec, {shard}));
}

TEST(CampaignCoordinated, RunShardRejectsCoordinatedSpecs) {
    // A lone shard runner cannot see the merged clustering, so measuring a
    // coordinated spec shard-by-shard would silently produce shard-local
    // counts under a coordinated plan hash.
    const campaign::CampaignSpec spec = coordinated_spec();
    EXPECT_THROW((void)campaign::run_shard(spec, 0, 2),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)campaign::LocalShardRunner(2).run(spec, 2),
                 relperf::InvalidArgument);
}

TEST(CampaignCoordinated, RunCampaignRoutesCoordinatedSpecs) {
    const campaign::CampaignSpec spec = coordinated_spec();
    const core::AnalysisResult via_campaign = campaign::run_campaign(spec, 3);
    const campaign::CoordinatedCampaignResult direct =
        campaign::run_coordinated_campaign(spec, 3);
    expect_sets_identical(via_campaign.measurements,
                          direct.analysis.measurements);
    expect_clusterings_identical(via_campaign.clustering,
                                 direct.analysis.clustering);
    EXPECT_EQ(via_campaign.fixed_n_samples, direct.analysis.fixed_n_samples);
    EXPECT_EQ(via_campaign.total_samples, direct.analysis.total_samples);
}

TEST(CampaignCoordinated, RequiresAnAdaptiveCoordinatedSpec) {
    // Fixed-N specs have no rounds to coordinate; shard-local adaptive specs
    // must go through run_shard/run_campaign.
    EXPECT_THROW(
        (void)campaign::run_coordinated_campaign(small_spec(), 2),
        relperf::Error);
    EXPECT_THROW(
        (void)campaign::run_coordinated_campaign(adaptive_spec(), 2),
        relperf::Error);
}
