#pragma once
//! \file lu.hpp
//! LU factorization with partial pivoting — a general-purpose solver that
//! serves the tests only, as an independent oracle for the Cholesky path.

#include "linalg/matrix.hpp"

#include <vector>

namespace relperf::linalg {

/// Factorization result: `lu` holds L (unit lower, implicit diagonal) and U,
/// `perm` is the row permutation (perm[i] = original row in position i).
struct LuFactors {
    Matrix lu;
    std::vector<std::size_t> perm;
};

/// Factors `a` (copied) with partial pivoting. Throws InvalidArgument when a
/// pivot column is exactly singular.
[[nodiscard]] LuFactors lu_factor(const Matrix& a);

/// Solves A * X = rhs given the factorization.
[[nodiscard]] Matrix lu_solve(const LuFactors& f, const Matrix& rhs);

/// One-shot general solve.
[[nodiscard]] Matrix solve(const Matrix& a, const Matrix& rhs);

/// FLOPs of an n x n LU factorization: 2 n^3 / 3.
[[nodiscard]] constexpr double lu_flops(std::size_t n) noexcept {
    const double dn = static_cast<double>(n);
    return 2.0 * dn * dn * dn / 3.0;
}

} // namespace relperf::linalg
