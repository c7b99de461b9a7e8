//! Backend-parity suite: every *registered* backend is checked against the
//! reference oracles (gemm_reference / gram_reference /
//! cholesky_factor_reference) over randomized and adversarial shapes. The
//! suite is parameterized over linalg::backend_names() at instantiation
//! time, so a backend added later — vendor BLAS, a future GPU path, or a
//! user registration — is covered with zero test changes.
//!
//! ## Tolerance policy
//!
//! Backends are free to reassociate sums (blocking, SIMD, vendor kernels),
//! so results are compared against the oracle with a forward-error bound,
//! not bitwise. For a dot-product-shaped accumulation of length k over
//! inputs bounded by amax*bmax, the classical bound is
//! |err| <= k * eps * amax * bmax * (1 + o(1)); we allow a 32x safety factor
//! on top (vendor kernels may use wider blocking but also fewer roundings
//! via FMA):
//!
//!   gemm:     tol = 32 * eps * (|alpha| * k * amax(A) * amax(B) + |beta| * amax(C))
//!   syrk:     tol = 32 * eps * m * amax(A)^2
//!   cholesky: tol = 32 * eps * n * amax(SPD)   (well-conditioned inputs only:
//!             the factor's error also carries the condition number, so SPD
//!             test inputs are built diagonally dominant via AᵀA + n·I)
//!
//! Exact (bitwise) expectations are reserved for structure, not values:
//! symmetry of SYRK output, zeroed strict-upper triangles, beta==0 never
//! reading C (NaN poison must not propagate), and 0-dimension handling.

#include "linalg/backend.hpp"

#include "linalg/cholesky.hpp"
#include "linalg/gemm.hpp"
#include "linalg/syrk.hpp"
#include "stats/rng.hpp"
#include "support/error.hpp"
#include "matrix_helpers.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

using relperf::linalg::Matrix;
namespace linalg = relperf::linalg;

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kSafety = 32.0;

double amax(const Matrix& m) {
    double worst = 0.0;
    for (const double x : m.data()) worst = std::max(worst, std::fabs(x));
    return worst;
}

Matrix random(std::size_t r, std::size_t c, std::uint64_t seed) {
    relperf::stats::Rng rng(seed);
    return Matrix::random_normal(r, c, rng);
}

/// Well-conditioned SPD input: AᵀA + n·I via the reference kernel.
Matrix random_spd(std::size_t n, std::uint64_t seed) {
    const Matrix a = random(n, n, seed);
    Matrix g;
    linalg::gram_reference(a, g);
    g.add_scaled_identity(static_cast<double>(n));
    return g;
}

struct GemmCase {
    std::size_t m, n, k;
    double alpha, beta;
};

const std::vector<GemmCase>& gemm_cases() {
    static const std::vector<GemmCase> cases = {
        // Randomized bread-and-butter shapes.
        {7, 9, 8, 1.0, 0.0},
        {32, 32, 32, 1.0, 0.0},
        {64, 64, 64, 1.0, 1.0},
        {100, 50, 75, 2.5, -1.5},
        {129, 127, 65, -1.0, 0.5},
        // Adversarial: 0-dim in every position.
        {0, 0, 0, 1.0, 0.0},
        {0, 5, 3, 1.0, 0.0},
        {5, 0, 3, 1.0, 0.0},
        {5, 3, 0, 1.0, 0.7},   // k == 0: pure C = beta * C
        // Adversarial: degenerate 1-extents and tall/skinny panels.
        {1, 1, 1, 1.0, 0.0},
        {1, 17, 1, 1.0, 2.0},
        {17, 1, 5, -2.0, 0.0},
        {200, 2, 3, 1.0, 0.0},
        {2, 200, 3, 0.5, 1.0},
        {3, 2, 200, 1.0, 0.0},
        // Adversarial: alpha == 0 must only scale C.
        {33, 21, 40, 0.0, 0.5},
        {33, 21, 40, 0.0, 0.0},
    };
    return cases;
}

} // namespace

/// One instantiation per registered backend; GetParam() is the name.
class BackendParity : public testing::TestWithParam<std::string> {
protected:
    const linalg::Backend& backend() const {
        return linalg::backend(GetParam());
    }
};

TEST_P(BackendParity, GemmMatchesReferenceAcrossShapes) {
    for (const GemmCase& c : gemm_cases()) {
        const Matrix a = random(c.m, c.k, 11 + c.m + c.k);
        const Matrix b = random(c.k, c.n, 23 + c.k + c.n);
        const Matrix c_init = random(c.m, c.n, 37 + c.m + c.n);

        Matrix expected = c_init;
        linalg::gemm_reference(c.alpha, a, b, c.beta, expected);
        Matrix actual = c_init;
        backend().gemm(c.alpha, a, b, c.beta, actual);

        const double tol =
            kSafety * kEps *
            (std::fabs(c.alpha) * static_cast<double>(c.k) * amax(a) * amax(b) +
             std::fabs(c.beta) * amax(c_init));
        EXPECT_LE(max_abs_diff(actual, expected), tol)
            << "m=" << c.m << " n=" << c.n << " k=" << c.k
            << " alpha=" << c.alpha << " beta=" << c.beta;
    }
}

TEST_P(BackendParity, GemmBetaZeroNeverReadsC) {
    // BLAS contract: beta == 0 means C is write-only — poison must vanish.
    const Matrix a = random(13, 7, 101);
    const Matrix b = random(7, 9, 102);
    Matrix expected(13, 9);
    linalg::gemm_reference(1.0, a, b, 0.0, expected);

    Matrix actual(13, 9, std::numeric_limits<double>::quiet_NaN());
    backend().gemm(1.0, a, b, 0.0, actual);
    const double tol = kSafety * kEps * 7.0 * amax(a) * amax(b);
    EXPECT_LE(max_abs_diff(actual, expected), tol);

    // Same with alpha == 0: the result must be exactly zero, not 0 * NaN.
    Matrix poisoned(13, 9, std::numeric_limits<double>::quiet_NaN());
    backend().gemm(0.0, a, b, 0.0, poisoned);
    for (const double x : poisoned.data()) EXPECT_EQ(x, 0.0);
}

TEST_P(BackendParity, GemmAliasedCBetaPathAccumulates) {
    // The beta != 0 path reads and writes the same C storage in place.
    const Matrix a = random(31, 17, 201);
    const Matrix b = random(17, 23, 202);
    const Matrix c_init = random(31, 23, 203);

    Matrix expected = c_init;
    linalg::gemm_reference(0.75, a, b, -2.0, expected);
    Matrix actual = c_init;
    backend().gemm(0.75, a, b, -2.0, actual);
    const double tol =
        kSafety * kEps * (0.75 * 17.0 * amax(a) * amax(b) + 2.0 * amax(c_init));
    EXPECT_LE(max_abs_diff(actual, expected), tol);
}

TEST_P(BackendParity, SyrkMatchesReferenceAcrossShapes) {
    const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
        {0, 0}, {0, 4}, {4, 0}, {1, 1}, {5, 1}, {1, 5},
        {50, 20}, {20, 50}, {64, 64}, {3, 129}, {129, 3}};
    for (const auto& [m, n] : shapes) {
        const Matrix a = random(m, n, 301 + m + n);
        Matrix expected;
        linalg::gram_reference(a, expected);
        Matrix actual;
        backend().syrk(a, actual);

        ASSERT_EQ(actual.rows(), n);
        ASSERT_EQ(actual.cols(), n);
        const double tol =
            kSafety * kEps * static_cast<double>(m) * amax(a) * amax(a);
        EXPECT_LE(max_abs_diff(actual, expected), tol) << "m=" << m << " n=" << n;
        // Structure is exact: full mirrored storage.
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                EXPECT_EQ(actual(i, j), actual(j, i)) << "m=" << m << " n=" << n;
            }
        }
    }
}

TEST_P(BackendParity, SyrkResizesAndOverwritesC) {
    const Matrix a = random(9, 6, 401);
    Matrix expected;
    linalg::gram_reference(a, expected);

    Matrix wrong_shape(2, 11, std::numeric_limits<double>::quiet_NaN());
    backend().syrk(a, wrong_shape);
    EXPECT_EQ(wrong_shape.rows(), 6u);
    EXPECT_EQ(wrong_shape.cols(), 6u);
    const double tol = kSafety * kEps * 9.0 * amax(a) * amax(a);
    EXPECT_LE(max_abs_diff(wrong_shape, expected), tol);

    Matrix right_shape(6, 6, std::numeric_limits<double>::quiet_NaN());
    backend().syrk(a, right_shape);
    EXPECT_LE(max_abs_diff(right_shape, expected), tol);
}

TEST_P(BackendParity, CholeskyMatchesReferenceAcrossSizes) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{5}, std::size_t{16}, std::size_t{33},
                                std::size_t{64}}) {
        const Matrix spd = random_spd(n, 501 + n);
        Matrix expected = spd;
        linalg::cholesky_factor_reference(expected);
        Matrix actual = spd;
        backend().cholesky(actual);

        const double tol = kSafety * kEps * static_cast<double>(n) * amax(spd);
        EXPECT_LE(max_abs_diff(actual, expected), tol) << "n=" << n;
        // The factor's structure is exact: strict upper triangle zeroed and
        // a positive diagonal.
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_GT(actual(i, i), 0.0) << "n=" << n;
            for (std::size_t j = i + 1; j < n; ++j) {
                EXPECT_EQ(actual(i, j), 0.0) << "n=" << n;
            }
        }
    }
}

TEST_P(BackendParity, CholeskyHandlesEmptyMatrix) {
    Matrix empty;
    EXPECT_NO_THROW(backend().cholesky(empty));
    EXPECT_EQ(empty.rows(), 0u);
}

TEST_P(BackendParity, CholeskyRejectsIndefiniteInput) {
    // Indefinite: a negative eigenvalue.
    Matrix indefinite = linalg::identity(3);
    indefinite(2, 2) = -1.0;
    EXPECT_THROW(backend().cholesky(indefinite), relperf::InvalidArgument);

    // Singular PSD (rank 1): a zero pivot, equally not factorizable.
    Matrix singular(2, 2, 1.0);
    EXPECT_THROW(backend().cholesky(singular), relperf::InvalidArgument);
}

TEST_P(BackendParity, DispatchRoutesPublicApiToThisBackend) {
    // The public entry points must produce this backend's results when it is
    // the scoped selection (spot check, small shapes).
    const linalg::ScopedBackend scope(linalg::backend(GetParam()));
    const Matrix a = random(12, 8, 601);
    const Matrix b = random(8, 10, 602);

    Matrix via_api(12, 10);
    linalg::gemm(1.0, a, b, 0.0, via_api);
    Matrix direct(12, 10);
    backend().gemm(1.0, a, b, 0.0, direct);
    EXPECT_EQ(max_abs_diff(via_api, direct), 0.0);

    Matrix g_api;
    linalg::gram(a, g_api);
    Matrix g_direct;
    backend().syrk(a, g_direct);
    EXPECT_EQ(max_abs_diff(g_api, g_direct), 0.0);

    Matrix spd = random_spd(8, 603);
    Matrix c_api = spd;
    linalg::cholesky_factor(c_api);
    Matrix c_direct = spd;
    backend().cholesky(c_direct);
    EXPECT_EQ(max_abs_diff(c_api, c_direct), 0.0);
}

TEST_P(BackendParity, DispatchedShapeErrorsAreBackendIndependent) {
    const linalg::ScopedBackend scope(linalg::backend(GetParam()));
    const Matrix a(2, 3);
    const Matrix b(4, 2);
    Matrix c(2, 2);
    EXPECT_THROW(linalg::gemm(1.0, a, b, 0.0, c), relperf::InvalidArgument);
    Matrix rect(2, 3);
    EXPECT_THROW(linalg::cholesky_factor(rect), relperf::InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredBackends, BackendParity,
    testing::ValuesIn(linalg::backend_names()),
    [](const testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
        }
        return name;
    });
