#pragma once
//! \file mathtask.hpp
//! Real (measured, not simulated) execution of the paper's loops.
//!
//! `run_rls_task` is a faithful implementation of Procedure 6:
//!
//!     MathTask(size, penalty):
//!       for i = 1..n:
//!         A, B <- random size x size
//!         Z <- (AᵀA + penalty I)⁻¹ AᵀB
//!         penalty <- ||A Z − B||₂
//!       return penalty
//!
//! `run_gemm_task` is the Figure 1a loop body. Both execute on the host CPU
//! via relperf_linalg; the RealExecutor (src/sim) wraps them with thread
//! clamping and artificial dispatch delays to emulate heterogeneous devices
//! (paper footnote 2).

#include "linalg/matrix.hpp"
#include "stats/rng.hpp"
#include "workloads/chain.hpp"

namespace relperf::workloads {

/// Executes one RLS MathTask; returns the updated penalty.
[[nodiscard]] double run_rls_task(std::size_t size, std::size_t iters, double penalty,
                                  stats::Rng& rng);

/// Executes one GEMM loop; returns a checksum-style scalar (Frobenius norm of
/// the last product) so the work cannot be optimized away.
[[nodiscard]] double run_gemm_task(std::size_t size, std::size_t iters,
                                   stats::Rng& rng);

/// Dispatches on `spec.kind`; returns the scalar carried to the next task.
[[nodiscard]] double run_task(const TaskSpec& spec, double carry, stats::Rng& rng);

/// Number of raw generator draws one run of `chain` consumes from its
/// measurement stream: every task iteration draws two random size x size
/// matrices (run_rls_task / run_gemm_task), one uniform draw per element and
/// one generator step per uniform draw. This is the real executor's
/// fast-forward contract — discarding stream_draws_per_run(chain) raw draws
/// advances a measurement stream bit-identically to one run — and it is
/// covered by a test so the workloads cannot silently change their
/// consumption.
[[nodiscard]] std::size_t stream_draws_per_run(const TaskChain& chain);

} // namespace relperf::workloads
