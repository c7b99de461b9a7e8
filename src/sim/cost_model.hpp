#pragma once
//! \file cost_model.hpp
//! Deterministic cost-model interface consumed by the SimulatedExecutor.
//!
//! A cost model answers: "how long does task `i` of this chain take, on this
//! placement, given where the previous task ran?" — the conditional structure
//! is essential: staging data onto a device you are already on is free, and
//! framework residency effects (memory-pool pressure, warm kernels) make task
//! times depend on the predecessor's placement
//! (`sim.CalibratedProfile.ConditionalSemantics` pins these semantics).

#include "workloads/chain.hpp"

#include <string>

namespace relperf::sim {

/// Split of one task's mean cost into what runs on the placement's compute
/// resource versus what occupies the interconnect (staging).
struct TaskTimeParts {
    double compute_s = 0.0; ///< Attributed to the executing device.
    double staging_s = 0.0; ///< Attributed to the link.

    [[nodiscard]] double total() const noexcept { return compute_s + staging_s; }
};

/// Abstract deterministic cost model (means only; noise is layered on top by
/// the executor).
class CostModel {
public:
    virtual ~CostModel() = default;

    /// Mean cost parts of task `index` of `chain` when executed on `p`,
    /// with the previous task (or the chain entry) on `prev`.
    [[nodiscard]] virtual TaskTimeParts task_parts(const workloads::TaskChain& chain,
                                                   std::size_t index,
                                                   workloads::Placement p,
                                                   workloads::Placement prev) const = 0;

    /// Cost of returning control/results to the edge device after the final
    /// task finished on `last` (0 when the chain already ends on the device).
    [[nodiscard]] virtual double exit_seconds(const workloads::TaskChain& chain,
                                              workloads::Placement last) const = 0;

    /// Compute-time multiplier of running a task's kernels on `backend` at
    /// placement `p` — the per-backend throughput axis that prices mixed
    /// placement×backend variants. The base class returns 1.0 for every
    /// backend (including the empty "inherit" name), so cost models that
    /// ignore the axis price all variants identically to the plain placement
    /// algorithms. AnalyticCostModel overrides this with the platform's
    /// BackendGains. The multiplier applies to the compute part only; staging
    /// is data movement and does not depend on the kernel implementation.
    [[nodiscard]] virtual double backend_multiplier(const std::string& backend,
                                                    workloads::Placement p) const {
        (void)backend;
        (void)p;
        return 1.0;
    }

    /// Human-readable model name for reports.
    [[nodiscard]] virtual std::string name() const = 0;

    /// Convenience: total mean seconds of one task.
    [[nodiscard]] double task_seconds(const workloads::TaskChain& chain,
                                      std::size_t index, workloads::Placement p,
                                      workloads::Placement prev) const {
        return task_parts(chain, index, p, prev).total();
    }
};

} // namespace relperf::sim
