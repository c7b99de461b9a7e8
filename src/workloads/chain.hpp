#pragma once
//! \file chain.hpp
//! Task chains — the paper's "scientific codes". A chain is an ordered
//! sequence of TaskSpecs with a serial dependency (each task feeds a penalty
//! into the next one, Procedure 5), so an assignment fully determines the
//! execution.

#include "workloads/assignment.hpp"
#include "workloads/task.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace relperf::workloads {

/// Ordered, serially-dependent sequence of tasks.
struct TaskChain {
    std::string name;
    std::vector<TaskSpec> tasks;
    /// Chain-level *default* linalg backend ("portable", "blas", ...); empty
    /// = inherit whatever backend is active on the executing thread. The same
    /// math on a different backend is a distinct measurable variant (the
    /// paper's generic vs vendor-optimized axis). A VariantAssignment's
    /// per-task ExecutionPolicy overrides this default task by task; plain
    /// (backend-inherit) assignments run every task on it.
    std::string backend;

    [[nodiscard]] std::size_t size() const noexcept { return tasks.size(); }
};

/// The paper's Section IV chain (Procedure 5): three RLS MathTasks of sizes
/// 50, 75, 300 with `iters` loop iterations each (paper: n = 10).
[[nodiscard]] TaskChain paper_rls_chain(std::size_t iters = 10);

/// The paper's Figure 1a chain: two GEMM loops, L2 larger than L1. Aggregate
/// costs are calibrated overrides matching the Figure 1b regime (L1 strongly
/// compute-bound => offload wins; L2 data-movement-bound => offload loses
/// slightly; see sim/profile.cpp for the timing side).
[[nodiscard]] TaskChain two_loop_chain();

/// Generic RLS chain with arbitrary sizes. `backend` selects the linalg
/// backend the chain runs on (empty = inherit the active backend).
[[nodiscard]] TaskChain make_rls_chain(const std::vector<std::size_t>& sizes,
                                       std::size_t iters,
                                       const std::string& name = "rls-chain",
                                       const std::string& backend = "");

/// Total FLOPs executed on each placement under `assignment`; index 0 =
/// Device, 1 = Accelerator. Drives the Section IV FLOPs/energy criteria.
struct FlopSplit {
    double on_device = 0.0;
    double on_accelerator = 0.0;
    [[nodiscard]] double total() const noexcept { return on_device + on_accelerator; }
};

[[nodiscard]] FlopSplit flop_split(const TaskChain& chain,
                                   const VariantAssignment& assignment);

/// Bytes that cross the device<->accelerator link under `assignment`
/// (stage-in for remote tasks + stage-out of remote results).
[[nodiscard]] double bytes_over_link(const TaskChain& chain,
                                     const VariantAssignment& assignment);

} // namespace relperf::workloads
