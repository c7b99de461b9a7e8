#include "sim/spec.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

namespace sim = relperf::sim;
using sim::EfficiencyCurve;

TEST(EfficiencyCurve, InterpolatesLinearly) {
    const EfficiencyCurve curve({{10.0, 0.2}, {20.0, 0.6}});
    EXPECT_DOUBLE_EQ(curve.at(10.0), 0.2);
    EXPECT_DOUBLE_EQ(curve.at(20.0), 0.6);
    EXPECT_DOUBLE_EQ(curve.at(15.0), 0.4);
}

TEST(EfficiencyCurve, ClampsOutsideRange) {
    const EfficiencyCurve curve({{10.0, 0.2}, {20.0, 0.6}});
    EXPECT_DOUBLE_EQ(curve.at(1.0), 0.2);
    EXPECT_DOUBLE_EQ(curve.at(100.0), 0.6);
}

TEST(EfficiencyCurve, FlatCurve) {
    const EfficiencyCurve curve = EfficiencyCurve::flat(0.5);
    EXPECT_DOUBLE_EQ(curve.at(1.0), 0.5);
    EXPECT_DOUBLE_EQ(curve.at(1e6), 0.5);
}

TEST(EfficiencyCurve, InvalidPointsThrow) {
    EXPECT_THROW(EfficiencyCurve({}), relperf::InvalidArgument);
    EXPECT_THROW(EfficiencyCurve({{10.0, 0.0}}), relperf::InvalidArgument);
    EXPECT_THROW(EfficiencyCurve({{10.0, 1.5}}), relperf::InvalidArgument);
    EXPECT_THROW(EfficiencyCurve({{20.0, 0.5}, {10.0, 0.6}}),
                 relperf::InvalidArgument);
}

TEST(DeviceSpec, ValidationCatchesBadFields) {
    sim::DeviceSpec dev;
    dev.peak_gflops = 0.0;
    EXPECT_THROW(dev.validate(), relperf::InvalidArgument);
    dev = sim::DeviceSpec{};
    dev.dispatch_overhead_s = -1.0;
    EXPECT_THROW(dev.validate(), relperf::InvalidArgument);
    dev = sim::DeviceSpec{};
    dev.active_watts = 1.0;
    dev.idle_watts = 2.0;
    EXPECT_THROW(dev.validate(), relperf::InvalidArgument);
}

TEST(LinkSpec, TransferSecondsIncludesLatency) {
    sim::LinkSpec link;
    link.bandwidth_gbps = 1.0; // 1e9 bytes/s
    link.latency_s = 1e-3;
    EXPECT_DOUBLE_EQ(link.transfer_seconds(0.0), 1e-3);
    EXPECT_DOUBLE_EQ(link.transfer_seconds(1e9), 1.0 + 1e-3);
    EXPECT_THROW((void)link.transfer_seconds(-1.0), relperf::InvalidArgument);
}

TEST(LinkSpec, ValidationCatchesBadFields) {
    sim::LinkSpec link;
    link.bandwidth_gbps = 0.0;
    EXPECT_THROW(link.validate(), relperf::InvalidArgument);
    link = sim::LinkSpec{};
    link.latency_s = -1.0;
    EXPECT_THROW(link.validate(), relperf::InvalidArgument);
}

TEST(Platforms, AllPresetsValidate) {
    EXPECT_NO_THROW(sim::paper_cpu_gpu_platform().validate());
    EXPECT_NO_THROW(sim::rpi_server_platform().validate());
    EXPECT_NO_THROW(sim::smartphone_gpu_platform().validate());
    EXPECT_NO_THROW(sim::cpu_only_platform().validate());
}

TEST(Platforms, PaperPresetShape) {
    const sim::Platform p = sim::paper_cpu_gpu_platform();
    EXPECT_EQ(p.device.kind, sim::DeviceKind::CpuCore);
    EXPECT_EQ(p.accelerator.kind, sim::DeviceKind::Gpu);
    // GPU: much higher peak, much higher dispatch overhead.
    EXPECT_GT(p.accelerator.peak_gflops, 10.0 * p.device.peak_gflops);
    EXPECT_GT(p.accelerator.dispatch_overhead_s, p.device.dispatch_overhead_s);
    // Small kernels are inefficient on the GPU.
    EXPECT_LT(p.accelerator.efficiency.at(50), 0.01);
}

TEST(Platforms, RpiLinkIsSlow) {
    const sim::Platform rpi = sim::rpi_server_platform();
    const sim::Platform paper = sim::paper_cpu_gpu_platform();
    EXPECT_LT(rpi.link.bandwidth_gbps, paper.link.bandwidth_gbps / 10.0);
    EXPECT_GT(rpi.link.latency_s, paper.link.latency_s * 10.0);
}
