#include "lu.hpp"

#include "linalg/gemm.hpp"
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

/// Rebuilds P*A from the packed LU factors.
Matrix reconstruct_pa(const linalg::LuFactors& f) {
    const std::size_t n = f.lu.rows();
    Matrix l = linalg::identity(n);
    Matrix u(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (j < i) l(i, j) = f.lu(i, j);
            else u(i, j) = f.lu(i, j);
        }
    }
    return linalg::multiply(l, u);
}

} // namespace

class LuRoundTrip : public testing::TestWithParam<int> {};

TEST_P(LuRoundTrip, PaEqualsLu) {
    const std::size_t n = static_cast<std::size_t>(GetParam());
    const Matrix a = random(n, n, 50 + n);
    const linalg::LuFactors f = linalg::lu_factor(a);

    const Matrix pa_expected = [&] {
        Matrix out(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) out(i, j) = a(f.perm[i], j);
        }
        return out;
    }();

    EXPECT_LT(max_abs_diff(reconstruct_pa(f), pa_expected),
              1e-10 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRoundTrip, testing::Values(1, 2, 7, 32, 100));

TEST(Lu, SolveRecoversKnownSolution) {
    const std::size_t n = 30;
    const Matrix a = random(n, n, 61);
    const Matrix x_true = random(n, 4, 62);
    const Matrix rhs = linalg::multiply(a, x_true);
    const Matrix x = linalg::solve(a, rhs);
    EXPECT_LT(max_abs_diff(x, x_true), 1e-8);
}

TEST(Lu, PivotingHandlesZeroLeadingElement) {
    Matrix a(2, 2);
    a(0, 0) = 0.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 0.0;
    Matrix rhs(2, 1);
    rhs(0, 0) = 3.0;
    rhs(1, 0) = 5.0;
    const Matrix x = linalg::solve(a, rhs);
    EXPECT_NEAR(x(0, 0), 5.0, 1e-14);
    EXPECT_NEAR(x(1, 0), 3.0, 1e-14);
}

TEST(Lu, SingularMatrixThrows) {
    Matrix a(2, 2, 1.0); // rank 1
    EXPECT_THROW((void)linalg::lu_factor(a), relperf::InvalidArgument);
}

TEST(Lu, NonSquareThrows) {
    const Matrix a(2, 3);
    EXPECT_THROW((void)linalg::lu_factor(a), relperf::InvalidArgument);
}

TEST(Lu, RhsShapeMismatchThrows) {
    const Matrix a = linalg::identity(3);
    const linalg::LuFactors f = linalg::lu_factor(a);
    const Matrix rhs(2, 1);
    EXPECT_THROW((void)linalg::lu_solve(f, rhs), relperf::InvalidArgument);
}

TEST(LuFlops, Formula) {
    EXPECT_DOUBLE_EQ(linalg::lu_flops(3), 18.0);
}
