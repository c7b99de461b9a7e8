#include "core/pipeline.hpp"

#include "sim/profile.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

namespace core = relperf::core;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using relperf::stats::Rng;

namespace {

struct Fixture {
    workloads::TaskChain chain = workloads::paper_rls_chain(10);
    sim::CalibratedProfile profile = sim::paper_rls_profile();
    sim::SimulatedExecutor executor{profile, sim::NoiseModel{}};
    std::vector<workloads::VariantAssignment> variants =
        workloads::enumerate_assignments(3);
};

} // namespace

TEST(MeasureAssignments, ProducesNamedDistributions) {
    Fixture f;
    Rng rng(1);
    const core::MeasurementSet set =
        core::measure_variants(f.executor, f.chain, f.variants, 25, rng);
    ASSERT_EQ(set.size(), 8u);
    EXPECT_EQ(set.name(0), "algDDD");
    EXPECT_EQ(set.name(7), "algAAA");
    for (std::size_t i = 0; i < set.size(); ++i) {
        EXPECT_EQ(set.samples(i).size(), 25u);
    }
}

TEST(MeasureAssignments, SeedDeterministic) {
    Fixture f;
    Rng a(7);
    Rng b(7);
    const auto sa = core::measure_variants(f.executor, f.chain, f.variants, 10, a);
    const auto sb = core::measure_variants(f.executor, f.chain, f.variants, 10, b);
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(std::vector<double>(sa.samples(i).begin(), sa.samples(i).end()),
                  std::vector<double>(sb.samples(i).begin(), sb.samples(i).end()));
    }
}

TEST(MeasureAssignments, EmptyAssignmentListThrows) {
    Fixture f;
    Rng rng(1);
    EXPECT_THROW(
        (void)core::measure_variants(f.executor, f.chain, {}, 10, rng),
        relperf::InvalidArgument);
}

TEST(AnalyzeChain, EndToEndProducesConsistentResult) {
    Fixture f;
    core::AnalysisConfig config;
    config.measurements_per_alg = 30;
    config.clustering.repetitions = 40;
    const core::AnalysisResult result =
        core::analyze_chain(f.executor, f.chain, f.variants, config);

    EXPECT_EQ(result.measurements.size(), 8u);
    EXPECT_GE(result.clustering.cluster_count(), 3);
    EXPECT_LE(result.clustering.cluster_count(), 8);
    EXPECT_EQ(result.clustering.final_assignment.size(), 8u);
    EXPECT_EQ(result.clustering.repetitions, 40u);
}

TEST(AnalyzeChain, IsFullyDeterministicUnderFixedSeeds) {
    Fixture f;
    core::AnalysisConfig config;
    config.measurements_per_alg = 20;
    config.clustering.repetitions = 30;
    const auto r1 = core::analyze_chain(f.executor, f.chain, f.variants, config);
    const auto r2 = core::analyze_chain(f.executor, f.chain, f.variants, config);
    ASSERT_EQ(r1.clustering.cluster_count(), r2.clustering.cluster_count());
    for (std::size_t alg = 0; alg < 8; ++alg) {
        EXPECT_EQ(r1.clustering.final_assignment[alg].rank,
                  r2.clustering.final_assignment[alg].rank);
        EXPECT_DOUBLE_EQ(r1.clustering.final_assignment[alg].score,
                         r2.clustering.final_assignment[alg].score);
    }
}

TEST(AnalyzeMeasurements, WorksOnExternallyCollectedData) {
    core::MeasurementSet set;
    set.add("fast", {1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.01, 0.99, 1.0, 1.02});
    set.add("slow", {2.0, 2.04, 1.96, 2.02, 1.98, 2.0, 2.02, 1.98, 2.0, 2.04});
    core::AnalysisConfig config;
    config.clustering.repetitions = 20;
    const core::AnalysisResult result =
        core::analyze_measurements(std::move(set), config);
    EXPECT_EQ(result.clustering.cluster_count(), 2);
    EXPECT_EQ(result.clustering.final_rank(0), 1);
    EXPECT_EQ(result.clustering.final_rank(1), 2);
}

TEST(MeasureAssignmentsReal, SmokeOnTinyChain) {
    const workloads::TaskChain tiny = workloads::make_rls_chain({16, 24}, 1, "tiny");
    const sim::RealExecutor real(sim::EmulatedDevice{1, 0.0, 0.0},
                                 sim::EmulatedDevice{2, 0.0, 0.0});
    Rng rng(5);
    const auto variants = workloads::enumerate_assignments(2);
    const core::MeasurementSet set =
        core::measure_variants_real(real, tiny, variants, 3, rng, 1);
    ASSERT_EQ(set.size(), 4u);
    for (std::size_t i = 0; i < set.size(); ++i) {
        for (const double s : set.samples(i)) EXPECT_GT(s, 0.0);
    }
}

TEST(MeasureAssignments, EachAssignmentHasAnIndependentDerivedStream) {
    // The sharding contract: measuring any single assignment on the stream
    // derived from (master seed, global index) reproduces exactly what the
    // full unsharded run produced for it — independent of every other
    // assignment.
    Fixture f;
    Rng rng(1234);
    const core::MeasurementSet all =
        core::measure_variants(f.executor, f.chain, f.variants, 12, rng);
    for (std::size_t i = 0; i < f.variants.size(); ++i) {
        Rng stream(core::assignment_stream_seed(1234, i));
        const std::vector<double> solo =
            f.executor.measure(f.chain, f.variants[i], 12, stream);
        EXPECT_EQ(std::vector<double>(all.samples(i).begin(),
                                      all.samples(i).end()),
                  solo)
            << f.variants[i].alg_name();
    }
}

TEST(MeasureAssignments, SubsetMeasurementMatchesTheFullRun) {
    // Measuring a strided subset (what one campaign shard does) yields the
    // same values as the corresponding rows of the full run.
    Fixture f;
    Rng full_rng(42);
    const core::MeasurementSet all =
        core::measure_variants(f.executor, f.chain, f.variants, 9, full_rng);

    const std::vector<workloads::VariantAssignment> subset = {
        f.variants[1], f.variants[3], f.variants[5]};
    core::MeasurementSet shard;
    for (const std::size_t global : {1u, 3u, 5u}) {
        Rng stream(core::assignment_stream_seed(42, global));
        shard.add(f.variants[global].alg_name(),
                  f.executor.measure(f.chain, f.variants[global], 9, stream));
    }
    for (std::size_t row = 0; row < shard.size(); ++row) {
        const std::size_t global = 1 + 2 * row;
        EXPECT_EQ(std::vector<double>(shard.samples(row).begin(),
                                      shard.samples(row).end()),
                  std::vector<double>(all.samples(global).begin(),
                                      all.samples(global).end()));
    }
}
