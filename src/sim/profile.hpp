#pragma once
//! \file profile.hpp
//! Calibrated cost model: per-task conditional mean tables reproducing the
//! measurement regime of the paper's testbed (Xeon 8160 core + P100 under
//! TensorFlow 2.1), which this environment cannot measure directly.
//!
//! Calibration targets (paper):
//!  * Table I cluster structure for the RLS chain {50, 75, 300}, n = 10.
//!  * Sec. IV: mean(algDDD) - mean(algDDA) ~ 2 ms, speed-up ~ 1.05 at n = 10,
//!    growing with n; crossover below n ~ 7.
//!  * Figure 1b regime for the two-loop chain: AD clearly best at N = 500,
//!    AD vs AA borderline at N = 30, DD ~ DA statistically equivalent.
//! Tests pin each target: `sim.PaperRlsProfile.*` and `sim.Fig1bProfile.*`
//! the expected means, `integration.Table1.*`, `integration.Speedup.*` and
//! `integration.Fig1b.*` the clusterings and speed-ups they produce.

#include "sim/cost_model.hpp"

#include <vector>

namespace relperf::sim {

/// Conditional timing of one task.
struct TaskTiming {
    double per_iter_device_s = 0.0; ///< Seconds per loop iteration on D.
    double per_iter_accel_s = 0.0;  ///< Seconds per loop iteration on A.
    double enter_accel_s = 0.0;     ///< Staging when switching D -> A before the task.
    double enter_device_s = 0.0;    ///< Staging when switching A -> D before the task.
    /// Signed extra on A when the previous task also ran on A. Positive models
    /// framework interference (memory-pool pressure after a resident
    /// predecessor); negative models locality bonuses.
    double resident_extra_s = 0.0;
};

/// Table-driven CostModel. The chain passed to task_parts must have exactly
/// one TaskTiming per task; iteration counts scale the per-iteration parts,
/// staging costs are one-time.
class CalibratedProfile final : public CostModel {
public:
    CalibratedProfile(std::string name, std::vector<TaskTiming> timings,
                      double exit_cost_s);

    [[nodiscard]] TaskTimeParts task_parts(const workloads::TaskChain& chain,
                                           std::size_t index, workloads::Placement p,
                                           workloads::Placement prev) const override;

    [[nodiscard]] double exit_seconds(const workloads::TaskChain& chain,
                                      workloads::Placement last) const override;

    [[nodiscard]] std::string name() const override { return name_; }

    [[nodiscard]] const std::vector<TaskTiming>& timings() const noexcept {
        return timings_;
    }

private:
    std::string name_;
    std::vector<TaskTiming> timings_;
    double exit_cost_s_;
};

/// Profile for workloads::paper_rls_chain(n) — any n; per-iteration costs are
/// constant, staging costs fixed. Matches Table I / Sec. IV targets at n=10.
[[nodiscard]] CalibratedProfile paper_rls_profile();

/// Profile for workloads::two_loop_chain() — matches the Figure 1b regime.
[[nodiscard]] CalibratedProfile fig1b_profile();

} // namespace relperf::sim
