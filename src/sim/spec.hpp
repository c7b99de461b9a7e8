#pragma once
//! \file spec.hpp
//! Hardware descriptions for the analytic cost model: devices (edge CPU,
//! GPU, Raspberry Pi, smartphone, server) and the interconnect between the
//! edge device and its accelerator.

#include "support/error.hpp"

#include <string>
#include <utility>
#include <vector>

namespace relperf::sim {

/// Size-dependent fraction of peak throughput. Small kernels run far below
/// peak (dispatch-bound, cache-unfriendly); the curve is piecewise-linear in
/// the problem size with clamped ends.
class EfficiencyCurve {
public:
    /// Points (size, fraction in (0, 1]) sorted by ascending size.
    explicit EfficiencyCurve(std::vector<std::pair<double, double>> points);

    /// Constant efficiency at every size.
    [[nodiscard]] static EfficiencyCurve flat(double fraction);

    /// Interpolated fraction of peak at `size` (clamped outside the range).
    [[nodiscard]] double at(double size) const;

private:
    std::vector<std::pair<double, double>> points_;
};

/// Broad device category (drives presets and report labels only).
enum class DeviceKind { CpuCore, Gpu, RaspberryPi, Smartphone, Server };

/// One compute device.
struct DeviceSpec {
    std::string name;
    DeviceKind kind = DeviceKind::CpuCore;
    double peak_gflops = 1.0;          ///< Peak arithmetic rate.
    double dispatch_overhead_s = 1e-6; ///< Cost per kernel launch.
    double active_watts = 10.0;        ///< Power while computing.
    double idle_watts = 1.0;           ///< Power while idle.
    EfficiencyCurve efficiency = EfficiencyCurve::flat(1.0);

    void validate() const;
};

/// The device <-> accelerator interconnect.
struct LinkSpec {
    double bandwidth_gbps = 10.0; ///< GB/s (decimal).
    double latency_s = 20e-6;     ///< Per-crossing latency.
    double active_watts = 5.0;    ///< Power while transferring.

    void validate() const;

    /// Seconds to move `bytes` across the link (one latency included).
    [[nodiscard]] double transfer_seconds(double bytes) const;
};

/// Per-backend compute-time multipliers — how much slower (>1) or faster
/// (<1) a linalg backend runs the same math on each side of the platform,
/// relative to the baseline the efficiency curves describe. Backends without
/// an entry (and the empty "inherit" backend) multiply by exactly 1.0, so a
/// platform with no gains prices every variant identically to the
/// pre-variant cost model.
struct BackendGain {
    std::string backend;        ///< linalg backend name, e.g. "blas".
    double device = 1.0;        ///< Compute-time multiplier on the Device.
    double accelerator = 1.0;   ///< Compute-time multiplier on the Accelerator.
};

struct BackendGains {
    std::vector<BackendGain> entries;

    /// Multiplier of `backend` on the given side; 1.0 when absent or empty.
    [[nodiscard]] double device_multiplier(const std::string& backend) const noexcept;
    [[nodiscard]] double accelerator_multiplier(const std::string& backend) const noexcept;

    /// Throws InvalidArgument on non-positive multipliers, empty or duplicate
    /// backend names.
    void validate() const;
};

/// A complete two-node edge platform.
struct Platform {
    std::string name;
    DeviceSpec device;      ///< The edge device (data home).
    DeviceSpec accelerator; ///< The offload target.
    LinkSpec link;
    BackendGains backend_gains; ///< Empty = every backend at 1.0.

    void validate() const;
};

/// Presets. Numbers are representative, not vendor-measured; the *paper*
/// experiments use the CalibratedProfile instead (see profile.hpp).
[[nodiscard]] Platform paper_cpu_gpu_platform(); ///< Xeon-8160-core + P100-like.
[[nodiscard]] Platform rpi_server_platform();    ///< Raspberry Pi + LAN server.
[[nodiscard]] Platform smartphone_gpu_platform();///< Phone big core + mobile GPU.
[[nodiscard]] Platform cpu_only_platform();      ///< Accelerator == second core.

} // namespace relperf::sim
