#pragma once
//! \file real_executor.hpp
//! Measured (wall-clock) execution of chains on *this* machine, following the
//! paper's own recipe for emulating heterogeneous devices (footnote 2):
//! "adding artificial delays and controlling the number of threads".
//!
//! The edge Device is emulated with a small OpenMP team (default 1 thread)
//! and the Accelerator with the full machine plus a per-launch dispatch delay
//! — producing genuinely noisy, genuinely heterogeneous measurement
//! distributions without any simulator.
//!
//! Variant assignments select the linalg backend *per task* (ScopedBackend is
//! entered around each task rather than once per run), so "L1 on portable,
//! L2 offloaded on vendor BLAS" is measured exactly as written. Backends are
//! resolved before the clock starts; a task with no policy backend runs on
//! the chain's default backend, and with neither on the ambient backend.

#include "stats/rng.hpp"
#include "workloads/chain.hpp"

#include <vector>

namespace relperf::sim {

/// Thread/delay emulation of one device.
struct EmulatedDevice {
    int threads = 1;               ///< OpenMP team; 0 = all hardware threads.
    double dispatch_delay_s = 0.0; ///< Artificial per-kernel-launch delay.
    double switch_delay_s = 0.0;   ///< Artificial delay when entering this device.
};

/// Executes chains for real and measures wall-clock time.
class RealExecutor {
public:
    RealExecutor(EmulatedDevice device, EmulatedDevice accelerator);

    /// Runs (chain, assignment) once; returns wall-clock seconds.
    [[nodiscard]] double run_once(const workloads::TaskChain& chain,
                                  const workloads::VariantAssignment& variant,
                                  stats::Rng& rng) const;

    /// `n` wall-clock measurements, with `warmup` unrecorded runs first.
    /// Warmup runs execute on a hoisted child stream and never consume the
    /// measurement stream: the measured runs draw the identical prefix of
    /// `rng` for every warmup count.
    [[nodiscard]] std::vector<double> measure(const workloads::TaskChain& chain,
                                              const workloads::VariantAssignment& variant,
                                              std::size_t n, stats::Rng& rng,
                                              std::size_t warmup = 1) const;

private:
    EmulatedDevice device_;
    EmulatedDevice accelerator_;
};

} // namespace relperf::sim
