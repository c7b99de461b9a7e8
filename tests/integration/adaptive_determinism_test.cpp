//! The adaptive refactor's hard invariant, asserted end to end: with
//! adaptive off (`max_n == min_n`, i.e. spec.adaptive_min == measurements)
//! the engine-backed paths reproduce the legacy fixed-N batch bit for bit —
//! through core::analyze_chain and through the campaign shard -> merge round
//! trip, for K in {1, 3}, on the simulated and the real executor, over plain
//! assignments and placement x backend variants. (Real-executor *values* are
//! wall-clock and can never be compared across runs; there the invariant is
//! the structure: same algorithms, same counts, same stream consumption.)
//! The stop decisions of the CI plan's two adaptive runs are pinned as well:
//! per-algorithm counts, rounds, stop-set history and clusterings.

#include "campaign/campaign.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/analytic.hpp"
#include "sim/profile.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace campaign = relperf::campaign;
namespace core = relperf::core;
namespace obs = relperf::obs;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using relperf::stats::Rng;

namespace {

struct Axis {
    bool variants = false;
    const char* label = "assignments";
};

campaign::CampaignSpec base_spec(campaign::ExecutorKind executor,
                                 bool variants) {
    campaign::CampaignSpec spec;
    spec.name = "adaptive-invariant";
    spec.executor = executor;
    spec.iters = executor == campaign::ExecutorKind::Real ? 1 : 3;
    spec.measurement_seed = 2024;
    spec.clustering_repetitions = 25;
    spec.bootstrap_rounds = 40;
    spec.clustering_seed = 7;
    if (variants) {
        spec.sizes = {24, 40}; // (2*2)^2 = 16 variants
        spec.variant_backends = {"portable", "reference"};
    } else {
        spec.sizes = {24, 40, 56}; // 2^3 = 8 assignments
    }
    if (executor == campaign::ExecutorKind::Real) {
        spec.measurements = 3;
        spec.device_threads = 1;
        spec.accelerator_threads = 1;
        spec.dispatch_delay_us = 0.0;
        spec.switch_delay_us = 0.0;
    } else {
        spec.measurements = 8;
    }
    return spec;
}

/// The same plan with the engine forced on but early stopping impossible
/// (min == max). Hash and manifests differ — the measurements must not.
campaign::CampaignSpec engine_off_spec(campaign::CampaignSpec spec) {
    spec.adaptive_min = spec.measurements;
    return spec;
}

void expect_sets_identical(const core::MeasurementSet& legacy,
                           const core::MeasurementSet& engine,
                           bool compare_values) {
    ASSERT_EQ(legacy.size(), engine.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_EQ(legacy.name(i), engine.name(i));
        const auto a = legacy.samples(i);
        const auto b = engine.samples(i);
        ASSERT_EQ(a.size(), b.size()) << legacy.name(i);
        if (!compare_values) continue;
        for (std::size_t k = 0; k < a.size(); ++k) {
            EXPECT_EQ(a[k], b[k]) << legacy.name(i) << " sample " << k;
        }
    }
}

void expect_clusterings_identical(const core::Clustering& a,
                                  const core::Clustering& b) {
    ASSERT_EQ(a.cluster_count(), b.cluster_count());
    ASSERT_EQ(a.final_assignment.size(), b.final_assignment.size());
    for (std::size_t alg = 0; alg < a.final_assignment.size(); ++alg) {
        EXPECT_EQ(a.final_assignment[alg].rank, b.final_assignment[alg].rank);
        EXPECT_DOUBLE_EQ(a.final_assignment[alg].score,
                         b.final_assignment[alg].score);
    }
}

} // namespace

TEST(AdaptiveOffInvariant, CampaignMergeIsBitIdenticalOnSim) {
    for (const Axis axis : {Axis{false, "assignments"}, Axis{true, "variants"}}) {
        const campaign::CampaignSpec legacy =
            base_spec(campaign::ExecutorKind::Sim, axis.variants);
        const campaign::CampaignSpec engine = engine_off_spec(legacy);
        EXPECT_NE(legacy.hash(), engine.hash()); // different plans on paper...
        for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
            const core::AnalysisResult a = campaign::run_campaign(legacy, k, 1);
            const core::AnalysisResult b = campaign::run_campaign(engine, k, 1);
            SCOPED_TRACE(std::string(axis.label) + " K=" + std::to_string(k));
            expect_sets_identical(a.measurements, b.measurements, true);
            expect_clusterings_identical(a.clustering, b.clustering);
        }
    }
}

TEST(AdaptiveOffInvariant, CampaignMergeKeepsStructureOnReal) {
    for (const Axis axis : {Axis{false, "assignments"}, Axis{true, "variants"}}) {
        const campaign::CampaignSpec legacy =
            base_spec(campaign::ExecutorKind::Real, axis.variants);
        const campaign::CampaignSpec engine = engine_off_spec(legacy);
        for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
            const core::AnalysisResult a = campaign::run_campaign(legacy, k, 1);
            const core::AnalysisResult b = campaign::run_campaign(engine, k, 1);
            SCOPED_TRACE(std::string(axis.label) + " K=" + std::to_string(k));
            // Wall-clock values differ run to run by nature; names and
            // per-algorithm counts must agree exactly.
            expect_sets_identical(a.measurements, b.measurements, false);
        }
    }
}

TEST(AdaptiveOffInvariant, ShardFileRoundTripIsBitIdentical) {
    // The CSV persistence of an engine-backed shard (manifest adaptive lines
    // included) merges to the same bytes as the in-memory path.
    const campaign::CampaignSpec spec =
        engine_off_spec(base_spec(campaign::ExecutorKind::Sim, false));
    std::vector<campaign::ShardResult> in_memory;
    std::vector<campaign::ShardResult> reloaded;
    for (std::size_t i = 0; i < 3; ++i) {
        in_memory.push_back(campaign::run_shard(spec, i, 3));
        const std::string path = testing::TempDir() + "adaptive_off_shard_" +
                                 std::to_string(i) + ".csv";
        campaign::write_shard_csv(in_memory.back(), path);
        reloaded.push_back(campaign::read_shard_csv(path));
        std::remove(path.c_str());
    }
    const core::MeasurementSet a = campaign::merge_shards(spec, in_memory);
    const core::MeasurementSet b = campaign::merge_shards(spec, reloaded);
    expect_sets_identical(a, b, true);
}

TEST(AdaptiveOffInvariant, AnalyzeChainMatchesLegacyBitForBit) {
    const workloads::TaskChain chain = workloads::paper_rls_chain(10);
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    const auto assignments = workloads::enumerate_assignments(3);

    core::AnalysisConfig legacy;
    legacy.measurements_per_alg = 12;
    legacy.clustering.repetitions = 25;

    core::AnalysisConfig engine = legacy;
    core::AdaptiveConfig off;
    off.min_n = off.max_n = 12;
    engine.adaptive = off;

    // The oracle is the batch path written out: N samples of every
    // algorithm on the stream rng.child(i), then one clustering. analyze_chain
    // must reproduce it with the fixed-N plan implicit and with an explicit
    // min == max engine plan.
    Rng rng(legacy.measurement_seed);
    const core::AnalysisResult batch = core::analyze_measurements(
        core::measure_variants(executor, chain, assignments, 12, rng),
        legacy);
    for (const core::AnalysisConfig* config : {&legacy, &engine}) {
        SCOPED_TRACE(config == &legacy ? "implicit fixed-N" : "min == max");
        const core::AnalysisResult chained =
            core::analyze_chain(executor, chain, assignments, *config);
        expect_sets_identical(batch.measurements, chained.measurements, true);
        expect_clusterings_identical(batch.clustering, chained.clustering);
        EXPECT_EQ(chained.total_samples, chained.fixed_n_samples);
        EXPECT_EQ(batch.samples_per_alg, chained.samples_per_alg);
    }
}

TEST(AdaptiveCampaign, ShardedRunIsDeterministicAndPrefixOfFixed) {
    campaign::CampaignSpec fixed =
        base_spec(campaign::ExecutorKind::Sim, false);
    fixed.measurements = 20;
    campaign::CampaignSpec adaptive = fixed;
    adaptive.adaptive_min = 6;
    adaptive.adaptive_batch = 4;
    adaptive.adaptive_stability = 2;

    const core::AnalysisResult full = campaign::run_campaign(fixed, 3, 1);
    const core::AnalysisResult once = campaign::run_campaign(adaptive, 3, 1);
    const core::AnalysisResult twice = campaign::run_campaign(adaptive, 3, 1);

    // Deterministic: the same adaptive plan keeps the same counts + values.
    expect_sets_identical(once.measurements, twice.measurements, true);

    // Prefix: every algorithm's adaptive sample is the head of its fixed-N
    // sample — early stopping can shorten, never perturb.
    ASSERT_EQ(once.measurements.size(), full.measurements.size());
    std::size_t total = 0;
    for (std::size_t i = 0; i < full.measurements.size(); ++i) {
        const auto grown = once.measurements.samples(i);
        const auto reference = full.measurements.samples(i);
        ASSERT_GE(grown.size(), adaptive.adaptive_min);
        ASSERT_LE(grown.size(), reference.size());
        total += grown.size();
        for (std::size_t k = 0; k < grown.size(); ++k) {
            EXPECT_EQ(grown[k], reference[k])
                << full.measurements.name(i) << " sample " << k;
        }
    }
    EXPECT_EQ(total, once.measurements.total_samples());
}

TEST(CoordinatedCampaign, DeterministicAcrossRunsAndShardCounts) {
    // The coordinated round loop is one global engine run; splitting it over
    // K shards is bookkeeping. Same plan -> same bits, for any K, every time.
    campaign::CampaignSpec spec = base_spec(campaign::ExecutorKind::Sim, false);
    spec.measurements = 20;
    spec.adaptive_min = 6;
    spec.adaptive_batch = 4;
    spec.adaptive_stability = 2;
    spec.adaptive_coordinated = true;

    const campaign::CoordinatedCampaignResult first =
        campaign::run_coordinated_campaign(spec, 1);
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
        const campaign::CoordinatedCampaignResult again =
            campaign::run_coordinated_campaign(spec, k);
        SCOPED_TRACE("K=" + std::to_string(k));
        expect_sets_identical(first.analysis.measurements,
                              again.analysis.measurements, true);
        expect_clusterings_identical(first.analysis.clustering,
                                     again.analysis.clustering);
        EXPECT_EQ(again.rounds, first.rounds);
        EXPECT_EQ(again.stopset_rounds, first.stopset_rounds);
    }
}

TEST(CoordinatedCampaign, SamplesStayAPrefixOfTheFixedNPlan) {
    // Coordinated stopping changes *when* algorithms stop, never the stream
    // an algorithm draws from: each sample list is the head of the fixed-N
    // list, for the stability rule and the confidence rule alike.
    campaign::CampaignSpec fixed =
        base_spec(campaign::ExecutorKind::Sim, false);
    fixed.measurements = 20;
    const core::AnalysisResult full = campaign::run_campaign(fixed, 3, 1);

    campaign::CampaignSpec coordinated = fixed;
    coordinated.adaptive_min = 6;
    coordinated.adaptive_batch = 4;
    coordinated.adaptive_stability = 2;
    coordinated.adaptive_coordinated = true;
    for (const double confidence : {0.0, 0.95}) {
        coordinated.adaptive_confidence = confidence;
        const campaign::CoordinatedCampaignResult coord =
            campaign::run_coordinated_campaign(coordinated, 3);
        SCOPED_TRACE(confidence == 0.0 ? "stability" : "confidence");
        ASSERT_EQ(coord.analysis.measurements.size(), full.measurements.size());
        EXPECT_LT(coord.analysis.total_samples, full.total_samples);
        for (std::size_t i = 0; i < full.measurements.size(); ++i) {
            const auto grown = coord.analysis.measurements.samples(i);
            const auto reference = full.measurements.samples(i);
            ASSERT_GE(grown.size(), coordinated.adaptive_min);
            ASSERT_LE(grown.size(), reference.size());
            for (std::size_t k = 0; k < grown.size(); ++k) {
                EXPECT_EQ(grown[k], reference[k])
                    << full.measurements.name(i) << " sample " << k;
            }
        }
    }
}

TEST(CoordinatedCampaign, SingleShardMatchesShardLocalStopping) {
    // With one shard the coordinator's merged clustering is the shard's own
    // clustering, so coordinated and shard-local adaptive runs coincide.
    campaign::CampaignSpec local = base_spec(campaign::ExecutorKind::Sim, false);
    local.measurements = 20;
    local.adaptive_min = 6;
    local.adaptive_batch = 4;
    local.adaptive_stability = 2;
    campaign::CampaignSpec coordinated = local;
    coordinated.adaptive_coordinated = true;

    const campaign::ShardResult shard = campaign::run_shard(local, 0, 1);
    const campaign::CoordinatedCampaignResult coord =
        campaign::run_coordinated_campaign(coordinated, 1);
    expect_sets_identical(coord.analysis.measurements, shard.measurements,
                          true);
}

namespace {

/// The plan CI runs: `relperf_cli --campaign-init` writes the default spec
/// and `--adaptive --min-n 10` measures it adaptively from 10 samples.
campaign::CampaignSpec ci_plan() {
    campaign::CampaignSpec spec;
    spec.adaptive_min = 10;
    return spec;
}

const std::vector<std::string> kCiPlanAlgorithms = {
    "algDDD", "algDDA", "algDAD", "algDAA",
    "algADD", "algADA", "algAAD", "algAAA"};

std::vector<std::string> names_of(const core::MeasurementSet& set) {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < set.size(); ++i) names.push_back(set.name(i));
    return names;
}

std::vector<std::size_t> counts_of(const core::MeasurementSet& set) {
    std::vector<std::size_t> counts;
    for (std::size_t i = 0; i < set.size(); ++i) {
        counts.push_back(set.samples(i).size());
    }
    return counts;
}

} // namespace

// The stop decisions of the CI plan's adaptive runs, pinned to the
// per-algorithm counts CI archives: a change to the engine's round loop
// that moves any decision fails here before it reaches the CLI artifacts.
TEST(CiPlanStops, ShardLocalStabilityRule) {
    const core::AnalysisResult run = campaign::run_campaign(ci_plan(), 1, 1);
    EXPECT_EQ(names_of(run.measurements), kCiPlanAlgorithms);
    EXPECT_EQ(counts_of(run.measurements),
              (std::vector<std::size_t>{25, 20, 25, 20, 20, 20, 20, 20}));
    EXPECT_EQ(run.total_samples, 170u);
}

namespace {

/// The CI plan's 4-shard coordinated run, with the clusterings it made.
struct CoordinatedCiRun {
    campaign::CoordinatedCampaignResult result;
    std::uint64_t clusterings = 0;
};

CoordinatedCiRun run_coordinated_ci_plan(double confidence,
                                         std::size_t workers) {
    campaign::CampaignSpec spec = ci_plan();
    spec.adaptive_coordinated = true;
    spec.adaptive_confidence = confidence;
    obs::registry().reset_values();
    obs::set_metrics_enabled(true);
    CoordinatedCiRun run;
    run.result = campaign::run_coordinated_campaign(spec, 4, workers);
    run.clusterings = obs::metrics().clusterings_total.value();
    obs::set_metrics_enabled(false);
    obs::registry().reset_values();
    return run;
}

} // namespace

// Both coordinated rules stop the same way whether each round's clustering
// runs its repetitions on one thread or on four.
TEST(CiPlanStops, CoordinatedConfidenceRule) {
    for (const std::size_t workers : {1u, 4u}) {
        SCOPED_TRACE("workers = " + std::to_string(workers));
        const CoordinatedCiRun ci = run_coordinated_ci_plan(0.95, workers);
        const campaign::CoordinatedCampaignResult& run = ci.result;
        EXPECT_EQ(names_of(run.analysis.measurements), kCiPlanAlgorithms);
        EXPECT_EQ(counts_of(run.analysis.measurements),
                  (std::vector<std::size_t>{20, 15, 20, 15, 15, 15, 15, 20}));
        EXPECT_EQ(run.analysis.total_samples, 135u);
        EXPECT_EQ(run.rounds, 3u);
        EXPECT_EQ(run.stopset_rounds, (std::vector<std::size_t>{0, 5, 8}));
        // Each round clusters once and the last round's clustering is the
        // one published: no clustering beyond the rounds.
        EXPECT_EQ(ci.clusterings, run.rounds);
    }
}

TEST(CiPlanStops, CoordinatedStabilityRule) {
    // Confidence 0 selects the stability rule on the coordinated path too;
    // the counts match the shard-local run's, in one more round than the
    // confidence rule needs.
    for (const std::size_t workers : {1u, 4u}) {
        SCOPED_TRACE("workers = " + std::to_string(workers));
        const CoordinatedCiRun ci = run_coordinated_ci_plan(0.0, workers);
        const campaign::CoordinatedCampaignResult& run = ci.result;
        EXPECT_EQ(names_of(run.analysis.measurements), kCiPlanAlgorithms);
        EXPECT_EQ(counts_of(run.analysis.measurements),
                  (std::vector<std::size_t>{25, 20, 25, 20, 20, 20, 20, 20}));
        EXPECT_EQ(run.analysis.total_samples, 170u);
        EXPECT_EQ(run.rounds, 4u);
        EXPECT_EQ(run.stopset_rounds, (std::vector<std::size_t>{0, 0, 6, 8}));
        EXPECT_EQ(ci.clusterings, run.rounds);
    }
}
