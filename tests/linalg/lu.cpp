#include "lu.hpp"

#include "support/error.hpp"

#include <cmath>
#include <numeric>
#include <utility>

namespace relperf::linalg {

LuFactors lu_factor(const Matrix& a) {
    RELPERF_REQUIRE(a.square(), "lu_factor: matrix must be square");
    const std::size_t n = a.rows();
    LuFactors f{a, std::vector<std::size_t>(n)};
    std::iota(f.perm.begin(), f.perm.end(), std::size_t{0});
    Matrix& m = f.lu;

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivot: largest |m(i, k)| for i >= k.
        std::size_t pivot = k;
        double best = std::fabs(m(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            const double cand = std::fabs(m(i, k));
            if (cand > best) {
                best = cand;
                pivot = i;
            }
        }
        RELPERF_REQUIRE(best > 0.0, "lu_factor: matrix is singular");
        if (pivot != k) {
            for (std::size_t c = 0; c < n; ++c) std::swap(m(k, c), m(pivot, c));
            std::swap(f.perm[k], f.perm[pivot]);
        }

        const double inv = 1.0 / m(k, k);
        for (std::size_t i = k + 1; i < n; ++i) {
            const double lik = m(i, k) * inv;
            m(i, k) = lik;
            for (std::size_t c = k + 1; c < n; ++c) m(i, c) -= lik * m(k, c);
        }
    }
    return f;
}

Matrix lu_solve(const LuFactors& f, const Matrix& rhs) {
    const std::size_t n = f.lu.rows();
    RELPERF_REQUIRE(rhs.rows() == n, "lu_solve: shape mismatch");
    const std::size_t nrhs = rhs.cols();

    // Apply the permutation.
    Matrix x(n, nrhs);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < nrhs; ++j) x(i, j) = rhs(f.perm[i], j);
    }

    // Forward: L y = P rhs (unit diagonal).
    for (std::size_t i = 1; i < n; ++i) {
        for (std::size_t j = 0; j < nrhs; ++j) {
            double acc = x(i, j);
            for (std::size_t p = 0; p < i; ++p) acc -= f.lu(i, p) * x(p, j);
            x(i, j) = acc;
        }
    }
    // Backward: U x = y.
    for (std::size_t ii = n; ii-- > 0;) {
        const double inv = 1.0 / f.lu(ii, ii);
        for (std::size_t j = 0; j < nrhs; ++j) {
            double acc = x(ii, j);
            for (std::size_t p = ii + 1; p < n; ++p) acc -= f.lu(ii, p) * x(p, j);
            x(ii, j) = acc * inv;
        }
    }
    return x;
}

Matrix solve(const Matrix& a, const Matrix& rhs) {
    return lu_solve(lu_factor(a), rhs);
}

} // namespace relperf::linalg
