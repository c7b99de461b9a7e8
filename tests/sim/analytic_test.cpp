#include "sim/analytic.hpp"

#include "support/error.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using workloads::Placement;

namespace {

sim::Platform simple_platform() {
    sim::Platform p;
    p.name = "simple";
    p.device = sim::DeviceSpec{"dev", sim::DeviceKind::CpuCore, 10.0, 1e-6,
                               5.0, 1.0, sim::EfficiencyCurve::flat(1.0)};
    p.accelerator = sim::DeviceSpec{"acc", sim::DeviceKind::Gpu, 100.0, 10e-6,
                                    50.0, 5.0, sim::EfficiencyCurve::flat(1.0)};
    p.link = sim::LinkSpec{1.0, 1e-3, 2.0};
    return p;
}

workloads::TaskChain one_task_chain(double flops, double bytes_in,
                                    double bytes_out, double launches) {
    workloads::TaskChain chain;
    chain.name = "synthetic";
    chain.tasks = {workloads::TaskSpec{
        "L1", workloads::TaskKind::GemmLoop, 64, 1,
        workloads::TaskCost{flops, bytes_in, bytes_out, launches}}};
    return chain;
}

} // namespace

TEST(AnalyticCostModel, DeviceExecutionHasNoLinkCost) {
    const sim::AnalyticCostModel model(simple_platform());
    const auto chain = one_task_chain(1e9, 1e6, 1e6, 10);
    const auto parts = model.task_parts(chain, 0, Placement::Device, Placement::Device);
    EXPECT_DOUBLE_EQ(parts.staging_s, 0.0);
    // 1 GFLOP at 10 GFLOP/s + 10 launches at 1 us.
    EXPECT_NEAR(parts.compute_s, 0.1 + 10e-6, 1e-12);
}

TEST(AnalyticCostModel, AcceleratorExecutionStreamsData) {
    const sim::AnalyticCostModel model(simple_platform());
    const auto chain = one_task_chain(1e9, 1e9, 0.0, 0);
    const auto parts =
        model.task_parts(chain, 0, Placement::Accelerator, Placement::Device);
    // Compute: 1 GFLOP at 100 GFLOP/s.
    EXPECT_NEAR(parts.compute_s, 0.01, 1e-12);
    // Staging: 1 GB at 1 GB/s + 2 transfer latencies + switch round-trip.
    EXPECT_NEAR(parts.staging_s, 1.0 + 2e-3 + 2e-3, 1e-12);
}

TEST(AnalyticCostModel, ResidentAcceleratorSkipsSwitchCost) {
    const sim::AnalyticCostModel model(simple_platform());
    const auto chain = one_task_chain(1e9, 1e6, 1e6, 0);
    const double from_device =
        model.task_parts(chain, 0, Placement::Accelerator, Placement::Device).total();
    const double resident = model.task_parts(chain, 0, Placement::Accelerator,
                                               Placement::Accelerator).total();
    EXPECT_GT(from_device, resident);
    EXPECT_NEAR(from_device - resident, 2e-3, 1e-12); // the switch round-trip
}

TEST(AnalyticCostModel, ReturningToDeviceCostsRoundTrip) {
    const sim::AnalyticCostModel model(simple_platform());
    const auto chain = one_task_chain(1e9, 0.0, 0.0, 0);
    const double stay = model.task_parts(chain, 0, Placement::Device, Placement::Device).total();
    const double back =
        model.task_parts(chain, 0, Placement::Device, Placement::Accelerator).total();
    EXPECT_NEAR(back - stay, 2e-3, 1e-12);
}

TEST(AnalyticCostModel, EfficiencyCurveSlowsSmallKernels) {
    sim::Platform p = simple_platform();
    p.accelerator.efficiency =
        sim::EfficiencyCurve({{64.0, 0.01}, {1024.0, 1.0}});
    const sim::AnalyticCostModel model(p);

    workloads::TaskChain small;
    small.name = "small";
    small.tasks = {workloads::TaskSpec{"L1", workloads::TaskKind::RlsLoop, 64, 1,
                                       std::nullopt}};
    workloads::TaskChain large = small;
    large.tasks[0].size = 1024;

    const double t_small_rate =
        workloads::task_cost(small.tasks[0]).flops /
        model.task_parts(small, 0, Placement::Accelerator, Placement::Accelerator)
            .compute_s;
    const double t_large_rate =
        workloads::task_cost(large.tasks[0]).flops /
        model.task_parts(large, 0, Placement::Accelerator, Placement::Accelerator)
            .compute_s;
    EXPECT_GT(t_large_rate, 10.0 * t_small_rate);
}

TEST(AnalyticCostModel, ExitCostOnlyFromAccelerator) {
    const sim::AnalyticCostModel model(simple_platform());
    const auto chain = one_task_chain(1.0, 0.0, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(model.exit_seconds(chain, Placement::Device), 0.0);
    EXPECT_NEAR(model.exit_seconds(chain, Placement::Accelerator), 2e-3, 1e-12);
}

TEST(AnalyticCostModel, NameMentionsPlatform) {
    const sim::AnalyticCostModel model(simple_platform());
    EXPECT_EQ(model.name(), "analytic(simple)");
}

TEST(AnalyticCostModel, TaskIndexOutOfRangeThrows) {
    const sim::AnalyticCostModel model(simple_platform());
    const auto chain = one_task_chain(1.0, 0.0, 0.0, 0.0);
    EXPECT_THROW(
        (void)model.task_parts(chain, 1, Placement::Device, Placement::Device),
        relperf::InvalidArgument);
}
