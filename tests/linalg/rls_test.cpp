#include "linalg/rls.hpp"

#include "linalg/gemm.hpp"
#include "linalg/syrk.hpp"
#include "stats/rng.hpp"
#include "support/error.hpp"
#include "matrix_helpers.hpp"

#include <gtest/gtest.h>

using relperf::linalg::Matrix;
namespace linalg = relperf::linalg;

namespace {

Matrix random(std::size_t r, std::size_t c, std::uint64_t seed) {
    relperf::stats::Rng rng(seed);
    return Matrix::random_normal(r, c, rng);
}

} // namespace

TEST(Rls, SolutionSatisfiesNormalEquations) {
    const std::size_t n = 40;
    const Matrix a = random(n, n, 1);
    const Matrix b = random(n, n, 2);
    const double penalty = 0.7;
    const Matrix z = linalg::rls_solve(a, b, penalty);

    // (AᵀA + pI) Z must equal AᵀB.
    Matrix lhs = linalg::gram(a);
    lhs.add_scaled_identity(penalty);
    const Matrix lz = linalg::multiply(lhs, z);
    const Matrix rhs = linalg::multiply(a.transposed(), b);
    EXPECT_LT(max_abs_diff(lz, rhs), 1e-9 * static_cast<double>(n));
}

TEST(Rls, TallSystemWorks) {
    const Matrix a = random(80, 30, 3);
    const Matrix b = random(80, 5, 4);
    const Matrix z = linalg::rls_solve(a, b, 0.5);
    EXPECT_EQ(z.rows(), 30u);
    EXPECT_EQ(z.cols(), 5u);
}

TEST(Rls, LargePenaltyShrinksSolution) {
    const Matrix a = random(25, 25, 5);
    const Matrix b = random(25, 25, 6);
    const Matrix z_small = linalg::rls_solve(a, b, 0.01);
    const Matrix z_large = linalg::rls_solve(a, b, 1e6);
    EXPECT_LT(z_large.frobenius_norm(), z_small.frobenius_norm());
    EXPECT_LT(z_large.frobenius_norm(), 1e-2); // ridge crushes the solution
}

TEST(Rls, ZeroPenaltySquareSystemSolvesExactly) {
    // Full-rank square A with penalty ~ 0: Z ~ A^{-1} B, residual ~ 0.
    const std::size_t n = 20;
    Matrix a = random(n, n, 7);
    a.add_scaled_identity(10.0); // well-conditioned
    const Matrix b = random(n, n, 8);
    const Matrix z = linalg::rls_solve(a, b, 0.0);
    EXPECT_LT(linalg::rls_residual(a, b, z), 1e-6);
}

TEST(Rls, ResidualMatchesDirectComputation) {
    const Matrix a = random(10, 10, 9);
    const Matrix b = random(10, 10, 10);
    const Matrix z = random(10, 10, 11);
    const Matrix az = linalg::multiply(a, z);
    const double expected = linalg::subtract(az, b).frobenius_norm();
    EXPECT_DOUBLE_EQ(linalg::rls_residual(a, b, z), expected);
}

TEST(Rls, ResidualIsMinimizedBySolution) {
    // Any perturbation of the RLS solution must not reduce the regularized
    // objective ||AZ - B||^2 + p ||Z||^2 (convexity check on the true
    // optimum; property-style with several perturbations).
    const Matrix a = random(15, 15, 12);
    const Matrix b = random(15, 15, 13);
    const double p = 0.3;
    const Matrix z = linalg::rls_solve(a, b, p);

    const auto objective = [&](const Matrix& zz) {
        const double r = linalg::rls_residual(a, b, zz);
        const double f = zz.frobenius_norm();
        return r * r + p * f * f;
    };
    const double at_optimum = objective(z);
    relperf::stats::Rng rng(14);
    for (int trial = 0; trial < 10; ++trial) {
        Matrix perturbed = z;
        for (double& x : perturbed.data()) x += 0.01 * rng.normal();
        EXPECT_GE(objective(perturbed), at_optimum - 1e-9);
    }
}

TEST(Rls, InvalidInputsThrow) {
    const Matrix wide(3, 5);
    const Matrix b(3, 3);
    EXPECT_THROW((void)linalg::rls_solve(wide, b, 1.0), relperf::InvalidArgument);
    const Matrix a(5, 3);
    const Matrix bad_b(4, 3);
    EXPECT_THROW((void)linalg::rls_solve(a, bad_b, 1.0), relperf::InvalidArgument);
    const Matrix ok_b(5, 2);
    EXPECT_THROW((void)linalg::rls_solve(a, ok_b, -1.0), relperf::InvalidArgument);
}

TEST(RlsFlops, PositiveAndCubicGrowth) {
    const double f50 = linalg::rls_flops(50);
    const double f100 = linalg::rls_flops(100);
    EXPECT_GT(f50, 0.0);
    // Doubling n multiplies the dominant n^3 terms by ~8.
    EXPECT_NEAR(f100 / f50, 8.0, 0.5);
}
