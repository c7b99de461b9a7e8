#pragma once
//! \file cholesky.hpp
//! Cholesky factorization and triangular solves — the solver path for the
//! paper's Regularized Least Squares task: (AᵀA + λI) Z = AᵀB with an SPD
//! left-hand side.
//!
//! `cholesky_factor` dispatches through the active backend (see backend.hpp);
//! `cholesky_factor_unblocked` is the portable kernel and
//! `cholesky_factor_reference` the textbook oracle. Every backend produces
//! the unique lower factor with positive diagonal and zeroes the strict
//! upper triangle, and throws InvalidArgument on a non-square or
//! not-positive-definite input.

#include "linalg/matrix.hpp"

namespace relperf::linalg {

/// Factors SPD `a` in place into its lower Cholesky factor L (upper triangle
/// is zeroed) via the active backend. Throws InvalidArgument if `a` is not
/// square or not positive definite (non-positive pivot).
void cholesky_factor(Matrix& a);

/// Textbook Cholesky–Banachiewicz row-by-row factorization. Oracle for tests.
void cholesky_factor_reference(Matrix& a);

/// Column-oriented factorization with a SIMD inner update (the `portable`
/// backend kernel).
void cholesky_factor_unblocked(Matrix& a);

/// Solves L * X = B in place (B overwritten by X); L lower-triangular.
void solve_lower(const Matrix& l, Matrix& b);

/// Solves Lᵀ * X = B in place; L lower-triangular (accessed transposed).
void solve_lower_transposed(const Matrix& l, Matrix& b);

/// FLOPs of an n x n Cholesky factorization: n^3 / 3.
[[nodiscard]] constexpr double cholesky_flops(std::size_t n) noexcept {
    const double dn = static_cast<double>(n);
    return dn * dn * dn / 3.0;
}

/// FLOPs of a triangular solve with an n x n factor and nrhs right-hand
/// sides: n^2 * nrhs.
[[nodiscard]] constexpr double trsm_flops(std::size_t n, std::size_t nrhs) noexcept {
    return static_cast<double>(n) * static_cast<double>(n) *
           static_cast<double>(nrhs);
}

} // namespace relperf::linalg
