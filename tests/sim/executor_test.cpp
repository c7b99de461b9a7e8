#include "sim/executor.hpp"

#include "sim/profile.hpp"
#include "stats/descriptive.hpp"
#include "support/error.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using relperf::stats::Rng;
using workloads::VariantAssignment;

namespace {

const workloads::TaskChain& chain() {
    static const workloads::TaskChain c = workloads::paper_rls_chain(10);
    return c;
}

const sim::CalibratedProfile& profile() {
    static const sim::CalibratedProfile p = sim::paper_rls_profile();
    return p;
}

} // namespace

TEST(SimulatedExecutor, NoiseFreeRunEqualsExpectation) {
    const sim::SimulatedExecutor exec(profile(), sim::NoiseModel::none());
    Rng rng(1);
    const VariantAssignment a("DDA");
    const double expected = exec.expected_seconds(chain(), a);
    for (int i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(exec.run_once(chain(), a, rng).total_s, expected);
    }
}

TEST(SimulatedExecutor, BreakdownComponentsSumToTotal) {
    const sim::SimulatedExecutor exec(profile(), sim::NoiseModel{});
    Rng rng(2);
    for (const auto& a : workloads::enumerate_assignments(3)) {
        const sim::TimeBreakdown t = exec.run_once(chain(), a, rng);
        EXPECT_NEAR(t.total_s,
                    t.device_busy_s + t.accelerator_busy_s + t.link_busy_s, 1e-12);
    }
}

TEST(SimulatedExecutor, AllDeviceRunHasNoAcceleratorOrLinkTime) {
    const sim::SimulatedExecutor exec(profile(), sim::NoiseModel{});
    Rng rng(3);
    const sim::TimeBreakdown t = exec.run_once(chain(), VariantAssignment("DDD"), rng);
    EXPECT_DOUBLE_EQ(t.accelerator_busy_s, 0.0);
    EXPECT_DOUBLE_EQ(t.link_busy_s, 0.0);
    EXPECT_GT(t.device_busy_s, 0.0);
}

TEST(SimulatedExecutor, OffloadedRunUsesAcceleratorAndLink) {
    const sim::SimulatedExecutor exec(profile(), sim::NoiseModel{});
    Rng rng(4);
    const sim::TimeBreakdown t = exec.run_once(chain(), VariantAssignment("DDA"), rng);
    EXPECT_GT(t.accelerator_busy_s, 0.0);
    EXPECT_GT(t.link_busy_s, 0.0); // staging + exit readback
}

TEST(SimulatedExecutor, MeasurementsAreSeedDeterministic) {
    const sim::SimulatedExecutor exec(profile(), sim::NoiseModel{});
    Rng a(42);
    Rng b(42);
    const auto ma = exec.measure(chain(), VariantAssignment("DAD"), 20, a);
    const auto mb = exec.measure(chain(), VariantAssignment("DAD"), 20, b);
    EXPECT_EQ(ma, mb);
}

TEST(SimulatedExecutor, NoiseProducesFluctuations) {
    const sim::SimulatedExecutor exec(profile(), sim::NoiseModel{});
    Rng rng(5);
    const auto samples = exec.measure(chain(), VariantAssignment("DDD"), 100, rng);
    ASSERT_EQ(samples.size(), 100u);
    EXPECT_GT(relperf::stats::stddev(samples), 0.0);
    // Mean within 10% of expectation.
    const double expected = exec.expected_seconds(chain(), VariantAssignment("DDD"));
    EXPECT_NEAR(relperf::stats::mean(samples) / expected, 1.0, 0.1);
}

TEST(SimulatedExecutor, NoiseCvIsInTheConfiguredBallpark) {
    sim::NoiseModel noise;
    noise.sigma_log = 0.08;
    noise.spike_prob = 0.0;
    const sim::SimulatedExecutor exec(profile(), noise);
    Rng rng(6);
    const auto samples = exec.measure(chain(), VariantAssignment("DDD"), 3000, rng);
    const auto s = relperf::stats::summarize(samples);
    // Per-component noise partially averages out at the chain level; the
    // chain CV must be positive but below the per-component sigma.
    EXPECT_GT(s.cv, 0.02);
    EXPECT_LT(s.cv, 0.09);
}

TEST(SimulatedExecutor, AssignmentLengthMismatchThrows) {
    const sim::SimulatedExecutor exec(profile(), sim::NoiseModel{});
    Rng rng(7);
    EXPECT_THROW((void)exec.run_once(chain(), VariantAssignment("DD"), rng),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)exec.measure(chain(), VariantAssignment("DDD"), 0, rng),
                 relperf::InvalidArgument);
}

TEST(SimulatedExecutor, InvalidNoiseRejectedAtConstruction) {
    sim::NoiseModel bad;
    bad.sigma_log = -1.0;
    EXPECT_THROW(sim::SimulatedExecutor(profile(), bad), relperf::InvalidArgument);
}
