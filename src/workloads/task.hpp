#pragma once
//! \file task.hpp
//! Task abstraction for the paper's "scientific codes": a chain of loops,
//! each evaluating a mathematical expression (Procedure 5 / Figure 1a).
//!
//! A TaskSpec describes one loop (a `MathTask` in paper terms): the kernel it
//! iterates, the matrix order, and the iteration count. `task_cost` derives
//! the resource footprint (FLOPs, stream bytes, kernel-launch count) used by
//! the simulator's analytic cost model and by the FLOPs/energy selection
//! criteria of Section IV.

#include <cstddef>
#include <optional>
#include <string>

namespace relperf::workloads {

/// Kernel iterated by a task.
enum class TaskKind {
    RlsLoop,  ///< Procedure 6: regularized least squares on random matrices.
    GemmLoop, ///< Figure 1a: matrix-matrix multiplication loop.
};

/// Resource footprint of one task (aggregated over its iterations).
struct TaskCost {
    double flops = 0.0;       ///< Arithmetic operations.
    double bytes_in = 0.0;    ///< Bytes staged to a remote device per execution.
    double bytes_out = 0.0;   ///< Bytes returned from a remote device.
    double op_launches = 0.0; ///< Kernel launches (dispatch-overhead count).
};

/// One loop of the scientific code.
struct TaskSpec {
    std::string name;          ///< e.g. "L1".
    TaskKind kind = TaskKind::RlsLoop;
    std::size_t size = 0;      ///< Matrix order (Procedure 6 `size`).
    std::size_t iters = 1;     ///< Loop trip count (Procedure 6 `n`).
    /// Explicit footprint for calibrated workloads (e.g. the Figure 1a loops,
    /// whose aggregate costs are calibrated rather than derived).
    std::optional<TaskCost> cost_override;
};

/// Number of kernel launches one iteration of `kind` issues (randgen, GEMMs,
/// factorizations, ...). Matches the op graph TensorFlow would dispatch.
[[nodiscard]] double ops_per_iteration(TaskKind kind) noexcept;

/// Aggregate resource footprint of `spec` (honours cost_override).
[[nodiscard]] TaskCost task_cost(const TaskSpec& spec);

} // namespace relperf::workloads
