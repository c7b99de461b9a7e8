#include "workloads/mathtask.hpp"

#include "linalg/gemm.hpp"
#include "linalg/rls.hpp"
#include "support/error.hpp"

#include <cmath>

namespace relperf::workloads {

double run_rls_task(std::size_t size, std::size_t iters, double penalty,
                    stats::Rng& rng) {
    RELPERF_REQUIRE(size > 0 && iters > 0, "run_rls_task: size/iters must be positive");
    RELPERF_REQUIRE(penalty >= 0.0 && std::isfinite(penalty),
                    "run_rls_task: penalty must be finite and non-negative");
    for (std::size_t i = 0; i < iters; ++i) {
        const linalg::Matrix a = linalg::Matrix::random_uniform(size, size, rng);
        const linalg::Matrix b = linalg::Matrix::random_uniform(size, size, rng);
        const linalg::Matrix z = linalg::rls_solve(a, b, penalty);
        penalty = linalg::rls_residual(a, b, z);
    }
    return penalty;
}

double run_gemm_task(std::size_t size, std::size_t iters, stats::Rng& rng) {
    RELPERF_REQUIRE(size > 0 && iters > 0, "run_gemm_task: size/iters must be positive");
    double checksum = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
        const linalg::Matrix a = linalg::Matrix::random_uniform(size, size, rng);
        const linalg::Matrix b = linalg::Matrix::random_uniform(size, size, rng);
        const linalg::Matrix c = linalg::multiply(a, b);
        checksum = c.frobenius_norm();
    }
    return checksum;
}

double run_task(const TaskSpec& spec, double carry, stats::Rng& rng) {
    switch (spec.kind) {
        case TaskKind::RlsLoop:
            return run_rls_task(spec.size, spec.iters, carry, rng);
        case TaskKind::GemmLoop:
            return run_gemm_task(spec.size, spec.iters, rng);
    }
    RELPERF_ASSERT(false, "run_task: unknown task kind");
    return carry;
}

std::size_t stream_draws_per_run(const TaskChain& chain) {
    std::size_t draws = 0;
    for (const TaskSpec& spec : chain.tasks) {
        // Both kinds draw two size x size random matrices per iteration and
        // nothing else; solves/products consume no randomness.
        draws += spec.iters * 2 * spec.size * spec.size;
    }
    return draws;
}

} // namespace relperf::workloads
