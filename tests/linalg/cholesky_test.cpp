#include "linalg/cholesky.hpp"

#include "linalg/gemm.hpp"
#include "linalg/syrk.hpp"
#include "stats/rng.hpp"
#include "support/error.hpp"

#include "lu.hpp"

#include <gtest/gtest.h>

using relperf::linalg::Matrix;
namespace linalg = relperf::linalg;

namespace {

/// Random SPD matrix: AᵀA + n·I.
Matrix random_spd(std::size_t n, std::uint64_t seed) {
    relperf::stats::Rng rng(seed);
    const Matrix a = Matrix::random_normal(n, n, rng);
    Matrix g = linalg::gram(a);
    g.add_scaled_identity(static_cast<double>(n));
    return g;
}

} // namespace

class CholeskyRoundTrip : public testing::TestWithParam<int> {};

TEST_P(CholeskyRoundTrip, FactorReconstructsInput) {
    const std::size_t n = static_cast<std::size_t>(GetParam());
    const Matrix spd = random_spd(n, 7 + n);
    Matrix l = spd;
    linalg::cholesky_factor(l);

    // Strict upper triangle must be zeroed.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
    }

    const Matrix reconstructed = linalg::multiply(l, l.transposed());
    EXPECT_LT(reconstructed.max_abs_diff(spd), 1e-9 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyRoundTrip, testing::Values(1, 2, 5, 16, 50, 128));

TEST(Cholesky, NonSquareThrows) {
    Matrix m(2, 3);
    EXPECT_THROW(linalg::cholesky_factor(m), relperf::InvalidArgument);
}

TEST(Cholesky, IndefiniteMatrixThrows) {
    Matrix m = Matrix::identity(3);
    m(2, 2) = -1.0;
    EXPECT_THROW(linalg::cholesky_factor(m), relperf::InvalidArgument);
}

TEST(Cholesky, SolveLowerKnownSystem) {
    // L = [[2,0],[1,3]]; solve L x = b with b = (2, 7) -> x = (1, 2).
    Matrix l(2, 2);
    l(0, 0) = 2;
    l(1, 0) = 1;
    l(1, 1) = 3;
    Matrix b(2, 1);
    b(0, 0) = 2;
    b(1, 0) = 7;
    linalg::solve_lower(l, b);
    EXPECT_NEAR(b(0, 0), 1.0, 1e-14);
    EXPECT_NEAR(b(1, 0), 2.0, 1e-14);
}

TEST(Cholesky, SolveLowerTransposedKnownSystem) {
    // Lᵀ = [[2,1],[0,3]]; solve Lᵀ x = (4, 6): x1 = 2, x0 = (4 - 2) / 2 = 1.
    Matrix l(2, 2);
    l(0, 0) = 2;
    l(1, 0) = 1;
    l(1, 1) = 3;
    Matrix b(2, 1);
    b(0, 0) = 4;
    b(1, 0) = 6;
    linalg::solve_lower_transposed(l, b);
    EXPECT_NEAR(b(1, 0), 2.0, 1e-14);
    EXPECT_NEAR(b(0, 0), 1.0, 1e-14);
}

TEST(Cholesky, SolveMatchesLu) {
    const std::size_t n = 40;
    const Matrix spd = random_spd(n, 21);
    relperf::stats::Rng rng(22);
    const Matrix rhs = Matrix::random_normal(n, 3, rng);

    const Matrix x_chol = linalg::cholesky_solve(spd, rhs);
    const Matrix x_lu = linalg::solve(spd, rhs);
    EXPECT_LT(x_chol.max_abs_diff(x_lu), 1e-9);
}

TEST(Cholesky, SolveResidualIsSmall) {
    const std::size_t n = 64;
    const Matrix spd = random_spd(n, 33);
    relperf::stats::Rng rng(34);
    const Matrix rhs = Matrix::random_normal(n, 2, rng);
    const Matrix x = linalg::cholesky_solve(spd, rhs);
    const Matrix residual = linalg::subtract(linalg::multiply(spd, x), rhs);
    EXPECT_LT(residual.frobenius_norm(), 1e-9 * rhs.frobenius_norm() * n);
}

TEST(Cholesky, ShapeMismatchesThrow) {
    const Matrix l(3, 3);
    Matrix b(2, 1);
    EXPECT_THROW(linalg::solve_lower(l, b), relperf::InvalidArgument);
    EXPECT_THROW(linalg::solve_lower_transposed(l, b), relperf::InvalidArgument);
    EXPECT_THROW((void)linalg::cholesky_solve(Matrix::identity(3), b),
                 relperf::InvalidArgument);
}

TEST(CholeskyFlops, Formulas) {
    EXPECT_DOUBLE_EQ(linalg::cholesky_flops(3), 9.0);
    EXPECT_DOUBLE_EQ(linalg::trsm_flops(4, 2), 32.0);
}
