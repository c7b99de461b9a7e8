#include "sim/spec.hpp"

namespace relperf::sim {

EfficiencyCurve::EfficiencyCurve(std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
    RELPERF_REQUIRE(!points_.empty(), "EfficiencyCurve: need at least one point");
    for (std::size_t i = 0; i < points_.size(); ++i) {
        RELPERF_REQUIRE(points_[i].second > 0.0 && points_[i].second <= 1.0,
                        "EfficiencyCurve: fractions must be in (0, 1]");
        if (i > 0) {
            RELPERF_REQUIRE(points_[i].first > points_[i - 1].first,
                            "EfficiencyCurve: sizes must be strictly ascending");
        }
    }
}

EfficiencyCurve EfficiencyCurve::flat(double fraction) {
    return EfficiencyCurve({{1.0, fraction}});
}

double EfficiencyCurve::at(double size) const {
    if (size <= points_.front().first) return points_.front().second;
    if (size >= points_.back().first) return points_.back().second;
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (size <= points_[i].first) {
            const auto& [x0, y0] = points_[i - 1];
            const auto& [x1, y1] = points_[i];
            const double t = (size - x0) / (x1 - x0);
            return y0 + t * (y1 - y0);
        }
    }
    return points_.back().second; // unreachable
}

void DeviceSpec::validate() const {
    RELPERF_REQUIRE(peak_gflops > 0.0, "DeviceSpec: peak_gflops must be positive");
    RELPERF_REQUIRE(dispatch_overhead_s >= 0.0,
                    "DeviceSpec: dispatch overhead must be >= 0");
    RELPERF_REQUIRE(active_watts >= idle_watts && idle_watts >= 0.0,
                    "DeviceSpec: watts must satisfy active >= idle >= 0");
}

void LinkSpec::validate() const {
    RELPERF_REQUIRE(bandwidth_gbps > 0.0, "LinkSpec: bandwidth must be positive");
    RELPERF_REQUIRE(latency_s >= 0.0, "LinkSpec: latency must be >= 0");
    RELPERF_REQUIRE(active_watts >= 0.0, "LinkSpec: watts must be >= 0");
}

double LinkSpec::transfer_seconds(double bytes) const {
    RELPERF_REQUIRE(bytes >= 0.0, "LinkSpec: bytes must be >= 0");
    return latency_s + bytes / (bandwidth_gbps * 1e9);
}

double BackendGains::device_multiplier(const std::string& backend) const noexcept {
    for (const BackendGain& gain : entries) {
        if (gain.backend == backend) return gain.device;
    }
    return 1.0;
}

double BackendGains::accelerator_multiplier(
    const std::string& backend) const noexcept {
    for (const BackendGain& gain : entries) {
        if (gain.backend == backend) return gain.accelerator;
    }
    return 1.0;
}

void BackendGains::validate() const {
    for (std::size_t i = 0; i < entries.size(); ++i) {
        RELPERF_REQUIRE(!entries[i].backend.empty(),
                        "BackendGains: backend name must not be empty");
        RELPERF_REQUIRE(entries[i].device > 0.0 && entries[i].accelerator > 0.0,
                        "BackendGains: multipliers must be positive");
        for (std::size_t j = i + 1; j < entries.size(); ++j) {
            RELPERF_REQUIRE(entries[i].backend != entries[j].backend,
                            "BackendGains: duplicate backend '" +
                                entries[i].backend + "'");
        }
    }
}

void Platform::validate() const {
    device.validate();
    accelerator.validate();
    link.validate();
    backend_gains.validate();
}

Platform paper_cpu_gpu_platform() {
    Platform p;
    p.name = "xeon8160-core+p100";
    p.device = DeviceSpec{
        "xeon8160-1core",
        DeviceKind::CpuCore,
        80.0,   // AVX-512 core peak
        30e-6,  // framework-level op dispatch (TF-eager-like)
        15.0,
        3.0,
        EfficiencyCurve({{16, 0.02}, {50, 0.028}, {75, 0.06}, {150, 0.3},
                         {300, 0.9}, {2048, 1.0}}),
    };
    p.accelerator = DeviceSpec{
        "p100",
        DeviceKind::Gpu,
        4700.0, // fp64 peak
        60e-6,  // GPU kernel launch via framework
        250.0,
        30.0,
        EfficiencyCurve({{32, 0.0005}, {64, 0.001}, {128, 0.004}, {300, 0.02},
                         {512, 0.08}, {1024, 0.3}, {4096, 1.0}}),
    };
    p.link = LinkSpec{10.0, 20e-6, 8.0};
    p.validate();
    return p;
}

Platform rpi_server_platform() {
    Platform p;
    p.name = "raspberry-pi+lan-server";
    p.device = DeviceSpec{
        "rpi4-core",
        DeviceKind::RaspberryPi,
        6.0,
        4e-6,
        4.0,
        1.5,
        EfficiencyCurve({{16, 0.05}, {64, 0.25}, {256, 0.7}, {1024, 0.9}}),
    };
    p.accelerator = DeviceSpec{
        "lan-server",
        DeviceKind::Server,
        600.0,
        15e-6,
        120.0,
        40.0,
        EfficiencyCurve({{16, 0.01}, {64, 0.05}, {256, 0.4}, {1024, 0.9},
                         {4096, 1.0}}),
    };
    // Gigabit Ethernet: ~0.11 GB/s effective, millisecond-scale latency.
    p.link = LinkSpec{0.11, 1.2e-3, 3.0};
    p.validate();
    return p;
}

Platform smartphone_gpu_platform() {
    Platform p;
    p.name = "smartphone-big-core+mobile-gpu";
    p.device = DeviceSpec{
        "phone-big-core",
        DeviceKind::Smartphone,
        25.0,
        8e-6,
        3.0,
        0.8,
        EfficiencyCurve({{16, 0.04}, {64, 0.2}, {256, 0.6}, {1024, 0.85}}),
    };
    p.accelerator = DeviceSpec{
        "mobile-gpu",
        DeviceKind::Gpu,
        180.0,
        90e-6,
        4.5,
        0.9,
        EfficiencyCurve({{32, 0.002}, {128, 0.02}, {512, 0.2}, {2048, 0.8}}),
    };
    // Shared SoC memory: fast, low latency.
    p.link = LinkSpec{25.0, 8e-6, 1.0};
    p.validate();
    return p;
}

Platform cpu_only_platform() {
    Platform p;
    p.name = "cpu-core+cpu-core";
    const DeviceSpec core{
        "cpu-core",
        DeviceKind::CpuCore,
        50.0,
        2e-6,
        12.0,
        2.5,
        EfficiencyCurve({{16, 0.05}, {64, 0.3}, {256, 0.8}, {1024, 1.0}}),
    };
    p.device = core;
    p.accelerator = core;
    p.accelerator.name = "cpu-core-2";
    // Cross-core "link": shared memory.
    p.link = LinkSpec{30.0, 2e-6, 0.5};
    p.validate();
    return p;
}

} // namespace relperf::sim
