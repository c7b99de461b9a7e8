#include "sim/energy.hpp"

#include "sim/profile.hpp"
#include "support/error.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using workloads::VariantAssignment;

namespace {

sim::Platform watts_platform() {
    sim::Platform p = sim::paper_cpu_gpu_platform();
    // Round numbers for hand-checkable expectations.
    p.device.active_watts = 10.0;
    p.device.idle_watts = 2.0;
    p.accelerator.active_watts = 100.0;
    p.accelerator.idle_watts = 20.0;
    p.link.active_watts = 5.0;
    return p;
}

} // namespace

TEST(EnergyModel, HandCheckedBreakdown) {
    const sim::EnergyModel model(watts_platform());
    sim::TimeBreakdown t;
    t.total_s = 10.0;
    t.device_busy_s = 4.0;
    t.accelerator_busy_s = 2.0;
    t.link_busy_s = 1.0;

    const sim::EnergyBreakdown e = model.energy(t);
    // Device: 2 W * 10 s idle baseline + 8 W * 4 s active delta.
    EXPECT_DOUBLE_EQ(e.device_j, 2.0 * 10.0 + 8.0 * 4.0);
    // Accelerator: 20 W * 10 s + 80 W * 2 s.
    EXPECT_DOUBLE_EQ(e.accelerator_j, 20.0 * 10.0 + 80.0 * 2.0);
    // Link: no idle power, 5 W * 1 s.
    EXPECT_DOUBLE_EQ(e.link_j, 5.0);
    EXPECT_DOUBLE_EQ(e.total(), e.device_j + e.accelerator_j + e.link_j);
}

TEST(EnergyModel, ZeroTimeMeansZeroEnergy) {
    const sim::EnergyModel model(watts_platform());
    const sim::EnergyBreakdown e = model.energy(sim::TimeBreakdown{});
    EXPECT_DOUBLE_EQ(e.total(), 0.0);
}

TEST(EnergyModel, OffloadingReducesDeviceEnergy) {
    const sim::EnergyModel model(watts_platform());
    const auto profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor exec(profile, sim::NoiseModel::none());
    const auto chain = workloads::paper_rls_chain(10);

    const double e_ddd =
        model.device_energy(exec.expected_breakdown(chain, VariantAssignment("DDD")));
    const double e_daa =
        model.device_energy(exec.expected_breakdown(chain, VariantAssignment("DAA")));
    // DAA moves L2+L3 off the device: device busy time shrinks a lot.
    EXPECT_LT(e_daa, e_ddd);
}

TEST(EnergyModel, InvalidBreakdownThrows) {
    const sim::EnergyModel model(watts_platform());
    sim::TimeBreakdown bad;
    bad.total_s = 1.0;
    bad.device_busy_s = 2.0; // busy exceeds total
    EXPECT_THROW((void)model.energy(bad), relperf::InvalidArgument);
    sim::TimeBreakdown negative;
    negative.total_s = -1.0;
    EXPECT_THROW((void)model.energy(negative), relperf::InvalidArgument);
}
