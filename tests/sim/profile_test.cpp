#include "sim/profile.hpp"

#include "sim/executor.hpp"
#include "support/error.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using workloads::Placement;

namespace {

std::map<std::string, double> expected_means_ms(const sim::CostModel& model,
                                                const workloads::TaskChain& chain) {
    const sim::SimulatedExecutor exec(model, sim::NoiseModel::none());
    std::map<std::string, double> out;
    for (const auto& a : workloads::enumerate_assignments(chain.size())) {
        out[a.str()] = exec.expected_seconds(chain, a) * 1e3;
    }
    return out;
}

} // namespace

// Golden values locked by the calibration (targets in sim/profile.hpp,
// derivation in paper_rls_profile());
// a change here is a change of the reproduced paper results and must be
// deliberate.
TEST(PaperRlsProfile, GoldenExpectedMeans) {
    const auto profile = sim::paper_rls_profile();
    const auto means = expected_means_ms(profile, workloads::paper_rls_chain(10));
    EXPECT_NEAR(means.at("DDD"), 44.2, 1e-9);
    EXPECT_NEAR(means.at("DDA"), 40.6, 1e-9);
    EXPECT_NEAR(means.at("DAD"), 52.8, 1e-9);
    EXPECT_NEAR(means.at("DAA"), 41.4, 1e-9);
    EXPECT_NEAR(means.at("ADD"), 51.8, 1e-9);
    EXPECT_NEAR(means.at("ADA"), 48.2, 1e-9);
    EXPECT_NEAR(means.at("AAD"), 59.2, 1e-9);
    EXPECT_NEAR(means.at("AAA"), 47.8, 1e-9);
}

TEST(PaperRlsProfile, SectionIvSpeedupTargets) {
    const auto means = expected_means_ms(sim::paper_rls_profile(),
                                         workloads::paper_rls_chain(10));
    // Paper: mean(DDD) - mean(DDA) ~ 0.002 s, speed-up ~ 1.05 at n = 10.
    const double delta_ms = means.at("DDD") - means.at("DDA");
    EXPECT_GT(delta_ms, 1.5);
    EXPECT_LT(delta_ms, 5.0);
    const double speedup = means.at("DDD") / means.at("DDA");
    EXPECT_GT(speedup, 1.03);
    EXPECT_LT(speedup, 1.12);
}

TEST(PaperRlsProfile, OrderingMatchesTableOneShape) {
    const auto m = expected_means_ms(sim::paper_rls_profile(),
                                     workloads::paper_rls_chain(10));
    // DDA best; DDD ahead of every L1-offloader; AAD worst.
    EXPECT_LT(m.at("DDA"), m.at("DAA"));
    EXPECT_LT(m.at("DAA"), m.at("DDD"));
    for (const char* alg : {"ADA", "ADD", "AAA", "DAD", "AAD"}) {
        EXPECT_LT(m.at("DDD"), m.at(alg)) << alg;
    }
    for (const char* alg : {"DDD", "DDA", "DAA", "ADA", "ADD", "AAA", "DAD"}) {
        EXPECT_LT(m.at(alg), m.at("AAD")) << alg;
    }
}

TEST(PaperRlsProfile, CrossoverBelowPaperIterationCount) {
    // At n = 1 offloading L3 does not pay (staging dominates); at n = 10 it
    // does (paper Sec. IV: speed-up grows with n).
    const auto profile = sim::paper_rls_profile();
    const auto means_1 = expected_means_ms(profile, workloads::paper_rls_chain(1));
    EXPECT_GT(means_1.at("DDA"), means_1.at("DDD"));
    const auto means_10 = expected_means_ms(profile, workloads::paper_rls_chain(10));
    EXPECT_LT(means_10.at("DDA"), means_10.at("DDD"));
    // Speed-up grows with n.
    const auto means_100 = expected_means_ms(profile, workloads::paper_rls_chain(100));
    EXPECT_GT(means_100.at("DDD") / means_100.at("DDA"),
              means_10.at("DDD") / means_10.at("DDA"));
}

TEST(Fig1bProfile, GoldenExpectedMeans) {
    const auto means = expected_means_ms(sim::fig1b_profile(),
                                         workloads::two_loop_chain());
    EXPECT_NEAR(means.at("DD"), 130.0, 1e-9);
    EXPECT_NEAR(means.at("DA"), 131.1, 1e-9);
    EXPECT_NEAR(means.at("AD"), 82.9, 1e-9);
    EXPECT_NEAR(means.at("AA"), 87.5, 1e-9);
}

TEST(Fig1bProfile, OrderingMatchesFigure) {
    const auto m = expected_means_ms(sim::fig1b_profile(), workloads::two_loop_chain());
    EXPECT_LT(m.at("AD"), m.at("AA"));  // AD clearly best
    EXPECT_LT(m.at("AA"), m.at("DD"));  // AA second
    EXPECT_LT(std::abs(m.at("DD") - m.at("DA")), 2.0); // DD ~ DA equivalent
}

TEST(CalibratedProfile, ConditionalSemantics) {
    // One synthetic task: 2 s/iter on D, 1 s/iter on A, staging 10/20,
    // residency extra 5.
    const sim::CalibratedProfile profile(
        "t", {sim::TaskTiming{2.0, 1.0, 10.0, 20.0, 5.0}}, 3.0);
    workloads::TaskChain chain;
    chain.name = "synthetic";
    chain.tasks = {workloads::TaskSpec{"L1", workloads::TaskKind::RlsLoop, 8, 4,
                                       std::nullopt}};

    using P = Placement;
    // On device, staying: 4 iters * 2 s.
    EXPECT_DOUBLE_EQ(profile.task_seconds(chain, 0, P::Device, P::Device), 8.0);
    // On device, arriving from accelerator: + enter_device.
    EXPECT_DOUBLE_EQ(profile.task_seconds(chain, 0, P::Device, P::Accelerator), 28.0);
    // On accelerator, arriving from device: 4 * 1 + enter_accel.
    EXPECT_DOUBLE_EQ(profile.task_seconds(chain, 0, P::Accelerator, P::Device), 14.0);
    // On accelerator, staying: 4 * 1 + resident extra.
    EXPECT_DOUBLE_EQ(profile.task_seconds(chain, 0, P::Accelerator, P::Accelerator),
                     9.0);
    // Exit cost only when the chain ends on the accelerator.
    EXPECT_DOUBLE_EQ(profile.exit_seconds(chain, P::Accelerator), 3.0);
    EXPECT_DOUBLE_EQ(profile.exit_seconds(chain, P::Device), 0.0);
}

TEST(CalibratedProfile, ChainMismatchThrows) {
    const auto profile = sim::paper_rls_profile();
    const auto wrong = workloads::two_loop_chain(); // 2 tasks vs 3 timings
    EXPECT_THROW(
        (void)profile.task_seconds(wrong, 0, Placement::Device, Placement::Device),
        relperf::InvalidArgument);
}

TEST(CalibratedProfile, InvalidConstructionThrows) {
    EXPECT_THROW(sim::CalibratedProfile("x", {}, 0.0), relperf::InvalidArgument);
    EXPECT_THROW(sim::CalibratedProfile(
                     "x", {sim::TaskTiming{-1.0, 1.0, 0.0, 0.0, 0.0}}, 0.0),
                 relperf::InvalidArgument);
    EXPECT_THROW(sim::CalibratedProfile(
                     "x", {sim::TaskTiming{1.0, 1.0, -0.5, 0.0, 0.0}}, 0.0),
                 relperf::InvalidArgument);
    EXPECT_THROW(sim::CalibratedProfile(
                     "x", {sim::TaskTiming{1.0, 1.0, 0.0, 0.0, 0.0}}, -1.0),
                 relperf::InvalidArgument);
}
