#include "sim/real_executor.hpp"

#include "stats/descriptive.hpp"
#include "support/error.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using relperf::stats::Rng;
using sim::EmulatedDevice;
using workloads::VariantAssignment;

namespace {

workloads::TaskChain tiny_chain() {
    // Small enough to run in milliseconds.
    return workloads::make_rls_chain({24, 32}, 2, "tiny");
}

} // namespace

TEST(RealExecutor, ProducesPositiveWallClockTimes) {
    const sim::RealExecutor exec(EmulatedDevice{1, 0.0, 0.0},
                                 EmulatedDevice{2, 0.0, 0.0});
    Rng rng(1);
    const auto samples = exec.measure(tiny_chain(), VariantAssignment("DA"), 5, rng, 1);
    ASSERT_EQ(samples.size(), 5u);
    for (const double s : samples) EXPECT_GT(s, 0.0);
}

TEST(RealExecutor, DispatchDelayInflatesRuntime) {
    // 1 ms per launch, tiny chain has 2 tasks x 2 iters x 10 ops = 40
    // launches on the accelerator -> >= 40 ms extra when offloaded.
    const sim::RealExecutor fast(EmulatedDevice{1, 0.0, 0.0},
                                 EmulatedDevice{1, 0.0, 0.0});
    const sim::RealExecutor slow(EmulatedDevice{1, 0.0, 0.0},
                                 EmulatedDevice{1, 1e-3, 0.0});
    Rng r1(2);
    Rng r2(2);
    const auto chain = tiny_chain();
    const double t_fast =
        relperf::stats::median(fast.measure(chain, VariantAssignment("AA"), 5, r1));
    const double t_slow =
        relperf::stats::median(slow.measure(chain, VariantAssignment("AA"), 5, r2));
    EXPECT_GT(t_slow, t_fast + 0.030);
}

TEST(RealExecutor, SwitchDelayAppliesOnDeviceChanges) {
    const sim::RealExecutor no_switch(EmulatedDevice{1, 0.0, 0.0},
                                      EmulatedDevice{1, 0.0, 0.0});
    const sim::RealExecutor with_switch(EmulatedDevice{1, 0.0, 5e-3},
                                        EmulatedDevice{1, 0.0, 5e-3});
    Rng r1(3);
    Rng r2(3);
    const auto chain = tiny_chain();
    // "AD" switches twice (enter A, back to D) plus no trailing switch.
    const double plain =
        relperf::stats::median(no_switch.measure(chain, VariantAssignment("AD"), 5, r1));
    const double delayed = relperf::stats::median(
        with_switch.measure(chain, VariantAssignment("AD"), 5, r2));
    EXPECT_GT(delayed, plain + 0.008);
}

TEST(RealExecutor, InvalidConfigurationThrows) {
    EXPECT_THROW(sim::RealExecutor(EmulatedDevice{-1, 0.0, 0.0},
                                   EmulatedDevice{1, 0.0, 0.0}),
                 relperf::InvalidArgument);
    EXPECT_THROW(sim::RealExecutor(EmulatedDevice{1, -1.0, 0.0},
                                   EmulatedDevice{1, 0.0, 0.0}),
                 relperf::InvalidArgument);
    // Both delays of both devices are slept through std::chrono: NaN, inf
    // and counts past INT64_MAX ns are refused by name.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (int field = 0; field < 4; ++field) {
        const bool on_device = field < 2;
        const bool dispatch = field % 2 == 0;
        const std::string key = std::string(on_device ? "device" : "accelerator") +
                                (dispatch ? " dispatch_delay_s" : " switch_delay_s");
        for (const double seconds : {kInf, std::nan(""), 1e300, -1.0, 1e10}) {
            EmulatedDevice device{1, 0.0, 0.0};
            EmulatedDevice accelerator{1, 0.0, 0.0};
            EmulatedDevice& target = on_device ? device : accelerator;
            (dispatch ? target.dispatch_delay_s : target.switch_delay_s) = seconds;
            try {
                const sim::RealExecutor exec(device, accelerator);
                ADD_FAILURE() << key << " = " << seconds << " was accepted";
            } catch (const relperf::InvalidArgument& e) {
                EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                    << e.what();
            }
        }
    }
    EXPECT_NO_THROW(sim::RealExecutor(EmulatedDevice{1, 9e9, 9e9},
                                      EmulatedDevice{1, 9e9, 9e9}));
}

TEST(RealExecutor, AssignmentLengthMismatchThrows) {
    const sim::RealExecutor exec(EmulatedDevice{1, 0.0, 0.0},
                                 EmulatedDevice{1, 0.0, 0.0});
    Rng rng(4);
    EXPECT_THROW((void)exec.run_once(tiny_chain(), VariantAssignment("D"), rng),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)exec.measure(tiny_chain(), VariantAssignment("DD"), 0, rng),
                 relperf::InvalidArgument);
}

TEST(RealExecutor, WarmupDoesNotConsumeTheMeasurementStream) {
    // Regression: warmup runs used to execute on the measurement stream, so
    // changing the warmup count shifted which random task data the measured
    // runs consumed — the measured *values* depended on warmup. Warmups are
    // hoisted onto a child stream now: after measuring n samples the
    // measurement stream must sit at the identical position for every warmup
    // count (the measured runs drew the identical prefix).
    const sim::RealExecutor exec(EmulatedDevice{1, 0.0, 0.0},
                                 EmulatedDevice{1, 0.0, 0.0});
    const auto chain = tiny_chain();
    std::vector<std::uint64_t> next_bits;
    for (const std::size_t warmup : {0u, 1u, 4u}) {
        Rng rng(0xABCDE);
        (void)exec.measure(chain, VariantAssignment("DA"), 3, rng, warmup);
        next_bits.push_back(rng.bits());
    }
    EXPECT_EQ(next_bits[0], next_bits[1]);
    EXPECT_EQ(next_bits[0], next_bits[2]);
}

TEST(RealExecutor, WarmupStillRunsTheChain) {
    // The hoisted warmup still executes real work: n samples come back
    // positive and the sample count ignores the warmup count.
    const sim::RealExecutor exec(EmulatedDevice{1, 0.0, 0.0},
                                 EmulatedDevice{1, 0.0, 0.0});
    Rng rng(7);
    const auto samples =
        exec.measure(tiny_chain(), VariantAssignment("DD"), 4, rng, 3);
    ASSERT_EQ(samples.size(), 4u);
    for (const double s : samples) EXPECT_GT(s, 0.0);
}
