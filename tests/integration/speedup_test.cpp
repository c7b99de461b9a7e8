//! Integration test for the paper's Section IV speed-up discussion:
//! "for a small loop size of n = 10 ... the mean execution time of algDDA is
//! just 0.002 s [better] than algDDD and the speed up is approximately 1.05.
//! When n becomes larger, the speed up increases."

#include "sim/executor.hpp"
#include "sim/profile.hpp"
#include "stats/descriptive.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using relperf::stats::Rng;
using workloads::VariantAssignment;

namespace {

double measured_mean(const sim::SimulatedExecutor& exec, std::size_t iters,
                     const char* assignment, std::uint64_t seed) {
    const workloads::TaskChain chain = workloads::paper_rls_chain(iters);
    Rng rng(seed);
    const auto samples = exec.measure(chain, VariantAssignment(assignment), 100, rng);
    return relperf::stats::mean(samples);
}

} // namespace

TEST(Speedup, PaperNumbersAtN10) {
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor exec(profile, sim::NoiseModel{});
    const double ddd = measured_mean(exec, 10, "DDD", 1);
    const double dda = measured_mean(exec, 10, "DDA", 2);
    // Mean gap ~ 0.002-0.005 s, speed-up ~ 1.05.
    EXPECT_GT(ddd - dda, 0.001);
    EXPECT_LT(ddd - dda, 0.007);
    EXPECT_GT(ddd / dda, 1.02);
    EXPECT_LT(ddd / dda, 1.15);
}

TEST(Speedup, GrowsWithIterationCount) {
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor exec(profile, sim::NoiseModel::none());
    double prev_speedup = 0.0;
    for (const std::size_t n : {10u, 20u, 50u, 100u}) {
        const workloads::TaskChain chain = workloads::paper_rls_chain(n);
        const double ddd = exec.expected_seconds(chain, VariantAssignment("DDD"));
        const double dda = exec.expected_seconds(chain, VariantAssignment("DDA"));
        const double speedup = ddd / dda;
        EXPECT_GT(speedup, prev_speedup) << "n = " << n;
        prev_speedup = speedup;
    }
    // Asymptotically the per-iteration ratio of L3 bounds the gain.
    EXPECT_LT(prev_speedup, 1.35);
}

TEST(Speedup, CrossoverAtSmallN) {
    // Below the crossover, offloading L3 does not pay (staging dominates);
    // the paper's n = 10 sits above it.
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor exec(profile, sim::NoiseModel::none());

    bool found_crossover = false;
    bool dda_wins_somewhere = false;
    bool ddd_wins_somewhere = false;
    for (std::size_t n = 1; n <= 16; ++n) {
        const workloads::TaskChain chain = workloads::paper_rls_chain(n);
        const double ddd = exec.expected_seconds(chain, VariantAssignment("DDD"));
        const double dda = exec.expected_seconds(chain, VariantAssignment("DDA"));
        if (ddd > dda) dda_wins_somewhere = true;
        if (dda > ddd) ddd_wins_somewhere = true;
        if (dda_wins_somewhere && ddd_wins_somewhere) found_crossover = true;
    }
    EXPECT_TRUE(found_crossover);
    // Direction: DDD wins at n = 1, DDA wins at n = 16.
    const double ddd1 = exec.expected_seconds(workloads::paper_rls_chain(1),
                                              VariantAssignment("DDD"));
    const double dda1 = exec.expected_seconds(workloads::paper_rls_chain(1),
                                              VariantAssignment("DDA"));
    EXPECT_LT(ddd1, dda1);
}
