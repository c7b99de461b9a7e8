#pragma once
//! \file executor.hpp
//! The simulated measurement apparatus: executes a (chain, assignment) pair
//! under a deterministic CostModel with stochastic NoiseModel perturbation,
//! producing the execution-time *distributions* the relative-performance
//! methodology consumes.
//!
//! Each algorithm is a VariantAssignment (placement × linalg backend per
//! task). A task's backend scales its compute part by the cost model's
//! backend_multiplier. The portable/inherit multiplier is 1.0, so a plain
//! letter-string assignment ("DAD") and a variant whose backends all
//! multiply by 1.0 simulate bit-identically.

#include "sim/cost_model.hpp"
#include "sim/noise.hpp"
#include "stats/rng.hpp"

#include <vector>

namespace relperf::sim {

/// Where the sampled wall-clock time of one run was spent.
struct TimeBreakdown {
    double total_s = 0.0;
    double device_busy_s = 0.0;      ///< Edge device computing.
    double accelerator_busy_s = 0.0; ///< Accelerator computing.
    double link_busy_s = 0.0;        ///< Staging / readback on the link.
};

/// Simulated executor. Stateless apart from its models; all randomness flows
/// through the caller-provided Rng, so runs are reproducible.
class SimulatedExecutor {
public:
    SimulatedExecutor(const CostModel& model, NoiseModel noise);

    /// One stochastic run; each deterministic cost component is perturbed by
    /// an independent mean-one noise factor.
    [[nodiscard]] TimeBreakdown run_once(const workloads::TaskChain& chain,
                                         const workloads::VariantAssignment& variant,
                                         stats::Rng& rng) const;

    /// `n` measurements of total wall-clock seconds (the paper's N).
    [[nodiscard]] std::vector<double> measure(const workloads::TaskChain& chain,
                                              const workloads::VariantAssignment& variant,
                                              std::size_t n, stats::Rng& rng) const;

    /// Noise-free expected wall-clock seconds (calibration/test oracle).
    [[nodiscard]] double expected_seconds(const workloads::TaskChain& chain,
                                          const workloads::VariantAssignment& variant) const;

    /// Noise-free expected breakdown.
    [[nodiscard]] TimeBreakdown expected_breakdown(
        const workloads::TaskChain& chain,
        const workloads::VariantAssignment& variant) const;

    [[nodiscard]] const CostModel& model() const noexcept { return model_; }
    [[nodiscard]] const NoiseModel& noise() const noexcept { return noise_; }

private:
    TimeBreakdown simulate(const workloads::TaskChain& chain,
                           const workloads::VariantAssignment& variant,
                           stats::Rng* rng) const;

    const CostModel& model_;
    NoiseModel noise_;
};

} // namespace relperf::sim
