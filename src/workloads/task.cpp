#include "workloads/task.hpp"

#include "linalg/gemm.hpp"
#include "linalg/rls.hpp"
#include "support/error.hpp"

namespace relperf::workloads {

double ops_per_iteration(TaskKind kind) noexcept {
    switch (kind) {
        case TaskKind::RlsLoop:
            // randgen A, randgen B, Gram, +penalty*I, Cholesky, AtB, two
            // triangular solves, residual GEMM, subtract+norm.
            return 10.0;
        case TaskKind::GemmLoop:
            // randgen A, randgen B, GEMM.
            return 3.0;
    }
    return 1.0;
}

TaskCost task_cost(const TaskSpec& spec) {
    if (spec.cost_override.has_value()) return *spec.cost_override;
    RELPERF_REQUIRE(spec.size > 0, "task_cost: size must be positive");
    RELPERF_REQUIRE(spec.iters > 0, "task_cost: iters must be positive");

    const double n = static_cast<double>(spec.iters);
    const double s = static_cast<double>(spec.size);
    TaskCost cost;
    cost.op_launches = n * ops_per_iteration(spec.kind);
    switch (spec.kind) {
        case TaskKind::RlsLoop:
            cost.flops = n * linalg::rls_flops(spec.size);
            // The loop's matrices are generated on the executing device
            // (Procedure 6); only the penalty scalar crosses per direction.
            cost.bytes_in = 8.0;
            cost.bytes_out = 8.0;
            break;
        case TaskKind::GemmLoop:
            cost.flops = n * linalg::gemm_flops(spec.size, spec.size, spec.size);
            // Figure 1a semantics: the loop consumes data resident on the
            // edge device, so remote execution streams both operands in and
            // the product out, every iteration.
            cost.bytes_in = n * 2.0 * s * s * 8.0;
            cost.bytes_out = n * s * s * 8.0;
            break;
    }
    return cost;
}

} // namespace relperf::workloads
