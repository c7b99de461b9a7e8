#include "linalg/cholesky.hpp"

#include "linalg/backend.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <cmath>

namespace relperf::linalg {

void cholesky_factor(Matrix& a) {
    RELPERF_REQUIRE(a.square(), "cholesky_factor: matrix must be square");
    active_backend().cholesky(a);
}

void cholesky_factor_reference(Matrix& a) {
    RELPERF_REQUIRE(a.square(), "cholesky_factor: matrix must be square");
    const std::size_t n = a.rows();
    // Cholesky–Banachiewicz: build L row by row.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double acc = a(i, j);
            for (std::size_t p = 0; p < j; ++p) acc -= a(i, p) * a(j, p);
            if (i == j) {
                RELPERF_REQUIRE(
                    acc > 0.0,
                    relperf::str::format(
                        "cholesky_factor: non-positive pivot %.3e at %zu "
                        "(matrix not positive definite)",
                        acc, j));
                a(i, j) = std::sqrt(acc);
            } else {
                a(i, j) = acc / a(j, j);
            }
        }
        for (std::size_t c = i + 1; c < n; ++c) a(i, c) = 0.0;
    }
}

void cholesky_factor_unblocked(Matrix& a) {
    RELPERF_REQUIRE(a.square(), "cholesky_factor: matrix must be square");
    const std::size_t n = a.rows();
    for (std::size_t j = 0; j < n; ++j) {
        // Diagonal element.
        double diag = a(j, j);
        for (std::size_t p = 0; p < j; ++p) diag -= a(j, p) * a(j, p);
        RELPERF_REQUIRE(diag > 0.0,
                        relperf::str::format(
                            "cholesky_factor: non-positive pivot %.3e at %zu "
                            "(matrix not positive definite)",
                            diag, j));
        const double ljj = std::sqrt(diag);
        a(j, j) = ljj;

        // Column below the diagonal.
        const double inv = 1.0 / ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double acc = a(i, j);
            #pragma omp simd reduction(- : acc)
            for (std::size_t p = 0; p < j; ++p) acc -= a(i, p) * a(j, p);
            a(i, j) = acc * inv;
        }
        // Zero the strictly upper part of row j for a clean factor.
        for (std::size_t c = j + 1; c < n; ++c) a(j, c) = 0.0;
    }
}

void solve_lower(const Matrix& l, Matrix& b) {
    RELPERF_REQUIRE(l.square(), "solve_lower: factor must be square");
    RELPERF_REQUIRE(l.rows() == b.rows(), "solve_lower: shape mismatch");
    const std::size_t n = l.rows();
    const std::size_t nrhs = b.cols();
    for (std::size_t i = 0; i < n; ++i) {
        const double inv = 1.0 / l(i, i);
        for (std::size_t j = 0; j < nrhs; ++j) {
            double acc = b(i, j);
            for (std::size_t p = 0; p < i; ++p) acc -= l(i, p) * b(p, j);
            b(i, j) = acc * inv;
        }
    }
}

void solve_lower_transposed(const Matrix& l, Matrix& b) {
    RELPERF_REQUIRE(l.square(), "solve_lower_transposed: factor must be square");
    RELPERF_REQUIRE(l.rows() == b.rows(), "solve_lower_transposed: shape mismatch");
    const std::size_t n = l.rows();
    const std::size_t nrhs = b.cols();
    for (std::size_t ii = n; ii-- > 0;) {
        const double inv = 1.0 / l(ii, ii);
        for (std::size_t j = 0; j < nrhs; ++j) {
            double acc = b(ii, j);
            for (std::size_t p = ii + 1; p < n; ++p) acc -= l(p, ii) * b(p, j);
            b(ii, j) = acc * inv;
        }
    }
}

} // namespace relperf::linalg
