//! Parameterized property sweep over the full pipeline: random chains on
//! every platform preset must always yield structurally valid analyses —
//! whatever the offload economics, noise draw or chain shape.

#include "core/pipeline.hpp"
#include "sim/analytic.hpp"
#include "stats/descriptive.hpp"

#include "generator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

namespace core = relperf::core;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;

namespace {

sim::Platform platform_by_index(int index) {
    switch (index) {
        case 0: return sim::paper_cpu_gpu_platform();
        case 1: return sim::rpi_server_platform();
        case 2: return sim::smartphone_gpu_platform();
        default: return sim::cpu_only_platform();
    }
}

} // namespace

class PipelineProperty
    : public testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PipelineProperty, AnalysisInvariantsHoldEverywhere) {
    const auto [platform_index, seed] = GetParam();
    const sim::Platform platform = platform_by_index(platform_index);

    // Random chain (2-4 tasks; sizes/iters bounded so the sweep stays fast).
    workloads::GeneratorConfig gen_config;
    gen_config.min_tasks = 2;
    gen_config.max_tasks = 4;
    gen_config.min_size = 32;
    gen_config.max_size = 320;
    gen_config.min_iters = 1;
    gen_config.max_iters = 12;
    relperf::stats::Rng gen_rng(seed);
    const workloads::TaskChain chain = workloads::random_chain(gen_config, gen_rng);

    const sim::AnalyticCostModel model(platform);
    const sim::SimulatedExecutor executor(model, sim::NoiseModel{});
    const auto assignments = workloads::enumerate_assignments(chain.size());

    core::AnalysisConfig config;
    config.measurements_per_alg = 20;
    config.clustering.repetitions = 30;
    config.measurement_seed = seed * 131 + 7;
    config.clustering.seed = seed;
    const core::AnalysisResult result =
        core::analyze_chain(executor, chain, assignments, config);

    const std::size_t p = assignments.size();
    ASSERT_EQ(result.measurements.size(), p);
    ASSERT_EQ(result.clustering.final_assignment.size(), p);

    // (1) Cluster count within [1, p].
    EXPECT_GE(result.clustering.cluster_count(), 1);
    EXPECT_LE(result.clustering.cluster_count(), static_cast<int>(p));

    // (2) Per-algorithm relative scores are a probability distribution.
    for (std::size_t alg = 0; alg < p; ++alg) {
        double total = 0.0;
        for (int rank = 1; rank <= result.clustering.cluster_count(); ++rank) {
            const double s = result.clustering.score_of(alg, rank);
            EXPECT_GE(s, 0.0);
            EXPECT_LE(s, 1.0);
            total += s;
        }
        EXPECT_NEAR(total, 1.0, 1e-12);
    }

    // (3) Final assignments consistent: rank within range, cumulated score
    // in (0, 1].
    for (const core::FinalAssignment& fin : result.clustering.final_assignment) {
        EXPECT_GE(fin.rank, 1);
        EXPECT_LE(fin.rank, result.clustering.cluster_count());
        EXPECT_GT(fin.score, 0.0);
        EXPECT_LE(fin.score, 1.0 + 1e-12);
    }

    // (4) The measured-fastest algorithm never lands in the worst class when
    // the *final* partition distinguishes at least two classes (sanity of
    // the ordering direction).
    {
        std::size_t fastest = 0;
        double best_mean = std::numeric_limits<double>::infinity();
        int worst_rank = 0;
        for (std::size_t alg = 0; alg < p; ++alg) {
            const double mean =
                relperf::stats::mean(result.measurements.samples(alg));
            if (mean < best_mean) {
                best_mean = mean;
                fastest = alg;
            }
            worst_rank =
                std::max(worst_rank, result.clustering.final_rank(alg));
        }
        if (worst_rank > 1) {
            EXPECT_LT(result.clustering.final_rank(fastest), worst_rank);
        }
    }

    // (5) Determinism: the same configuration reproduces identical final
    // ranks.
    const core::AnalysisResult replay =
        core::analyze_chain(executor, chain, assignments, config);
    for (std::size_t alg = 0; alg < p; ++alg) {
        EXPECT_EQ(replay.clustering.final_rank(alg),
                  result.clustering.final_rank(alg));
    }
}

INSTANTIATE_TEST_SUITE_P(
    PlatformsAndSeeds, PipelineProperty,
    testing::Combine(testing::Values(0, 1, 2, 3),
                     testing::Values<std::uint64_t>(1, 2, 3, 4, 5)));
