#pragma once
//! \file decision.hpp
//! Algorithm-selection policies built on top of the clustering — the paper's
//! Section IV applications:
//!
//!  1. Operating-cost trade-off: a "decision-model that is a trade-off
//!     between operating cost and speed" (whether to procure/use the
//!     accelerator at all).
//!  2. Energy-budget switching: run the preferred algorithm until the edge
//!     device's energy budget is exhausted, switch to an equivalent (or
//!     next-class) algorithm that off-loads most FLOPs, switch back after
//!     cool-down.

#include "core/clustering.hpp"
#include "core/measurement.hpp"
#include "sim/energy.hpp"
#include "sim/executor.hpp"
#include "workloads/chain.hpp"

#include <string>
#include <vector>

namespace relperf::core {

/// Per-algorithm facts a decision model consumes.
struct CandidateProfile {
    std::size_t alg = 0;
    std::string name;
    int final_rank = 0;            ///< Performance class from the clustering.
    double final_score = 0.0;      ///< Confidence of the class assignment.
    double mean_seconds = 0.0;     ///< Mean measured execution time.
    double accelerator_seconds = 0.0; ///< Mean accelerator busy time per run.
    double device_flops = 0.0;     ///< FLOPs executed on the edge device.
    double accelerator_flops = 0.0;///< FLOPs executed on the accelerator.
};

/// Builds candidate profiles from an analysis result plus the chain's flop
/// split and the executor's expected breakdowns.
[[nodiscard]] std::vector<CandidateProfile> build_candidate_profiles(
    const MeasurementSet& measurements, const Clustering& clustering,
    const sim::SimulatedExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& assignments);

/// Section IV application 1: cost-aware selection.
/// Utility(alg) = mean_seconds + cost_per_accelerator_second * accel_seconds.
/// Only algorithms with final rank <= `rank_tolerance` are eligible (the
/// paper restricts attention to the top classes, then trades speed for cost).
struct CostAwareConfig {
    double cost_per_accelerator_second = 0.0;
    int rank_tolerance = 1; ///< 1 = only the best class; 2 = best two; ...
};

[[nodiscard]] CandidateProfile select_cost_aware(
    const std::vector<CandidateProfile>& candidates, const CostAwareConfig& config);

/// Section IV application 2: within the classes of rank <= `rank_tolerance`,
/// pick the algorithm executing the fewest FLOPs on the edge device (the
/// paper's algDAA choice: "it offloads most of the computations").
[[nodiscard]] CandidateProfile select_min_device_flops(
    const std::vector<CandidateProfile>& candidates, int rank_tolerance);

/// Duty-cycle simulation of the energy-budget switching policy.
struct SwitchPolicyConfig {
    double device_energy_budget_j = 1.0; ///< Budget per monitoring window.
    std::size_t window_runs = 50;        ///< Runs per monitoring window.
    std::size_t cooldown_runs = 20;      ///< Runs on the off-load algorithm.
    int rank_tolerance = 2;              ///< Eligible classes for the alternate.
};

/// What happened during one simulated duty cycle.
struct SwitchTrace {
    struct Segment {
        std::string alg_name;
        std::size_t runs = 0;
        double seconds = 0.0;
        double device_energy_j = 0.0;
    };
    std::vector<Segment> segments;
    double total_seconds = 0.0;
    double total_device_energy_j = 0.0;
    std::size_t switches = 0;

    /// Same workload executed with the primary algorithm only (baseline).
    double baseline_seconds = 0.0;
    double baseline_device_energy_j = 0.0;
};

/// Simulates `total_runs` back-to-back chain executions under the switching
/// policy: primary algorithm until the window budget is exceeded, then the
/// min-device-FLOPs alternate for `cooldown_runs`, then back.
class EnergyBudgetSwitcher {
public:
    EnergyBudgetSwitcher(const sim::SimulatedExecutor& executor,
                         const sim::EnergyModel& energy,
                         const workloads::TaskChain& chain);

    [[nodiscard]] SwitchTrace simulate(
        const workloads::VariantAssignment& primary,
        const workloads::VariantAssignment& alternate, std::size_t total_runs,
        const SwitchPolicyConfig& config, stats::Rng& rng) const;

private:
    const sim::SimulatedExecutor& executor_;
    const sim::EnergyModel& energy_;
    const workloads::TaskChain& chain_;
};

} // namespace relperf::core
