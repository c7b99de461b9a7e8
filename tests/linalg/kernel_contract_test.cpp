//! Error-contract tests for the dense kernels: dimension mismatches and
//! precondition violations must throw relperf::InvalidArgument — for every
//! registered backend — instead of reading out of bounds or producing
//! garbage. Degenerate-but-legal inputs (0-dimension matrices) must work.

#include "linalg/backend.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/gemm.hpp"
#include "linalg/rls.hpp"
#include "linalg/syrk.hpp"
#include "stats/rng.hpp"
#include "support/error.hpp"

#include "lu.hpp"

#include <gtest/gtest.h>

using relperf::linalg::Matrix;
namespace linalg = relperf::linalg;

namespace {

Matrix random(std::size_t r, std::size_t c, std::uint64_t seed) {
    relperf::stats::Rng rng(seed);
    return Matrix::random_normal(r, c, rng);
}

} // namespace

TEST(GemmContract, DimensionMismatchThrowsForEveryBackend) {
    const Matrix a(2, 3);
    const Matrix inner_mismatch(4, 2);
    const Matrix b(3, 2);
    for (const std::string& name : linalg::backend_names()) {
        const linalg::Backend& backend = linalg::backend(name);
        Matrix c(2, 2);
        EXPECT_THROW(backend.gemm(1.0, a, inner_mismatch, 0.0, c),
                     relperf::InvalidArgument)
            << name;
        Matrix wrong_rows(3, 2);
        EXPECT_THROW(backend.gemm(1.0, a, b, 0.0, wrong_rows),
                     relperf::InvalidArgument)
            << name;
        Matrix wrong_cols(2, 3);
        EXPECT_THROW(backend.gemm(1.0, a, b, 0.0, wrong_cols),
                     relperf::InvalidArgument)
            << name;
    }
}

TEST(GemmContract, MultiplyChecksInnerDimensions) {
    const Matrix a(2, 3);
    const Matrix b(4, 2);
    EXPECT_THROW((void)linalg::multiply(a, b), relperf::InvalidArgument);
}

TEST(GemmContract, ZeroDimensionsAreLegal) {
    // 0 x k times k x 0 and friends: no throw, no out-of-bounds reads.
    const Matrix a(0, 3);
    const Matrix b(3, 0);
    Matrix c(0, 0);
    EXPECT_NO_THROW(linalg::gemm(1.0, a, b, 0.0, c));

    const Matrix a2(4, 0);
    const Matrix b2(0, 5);
    Matrix c2(4, 5, 2.0);
    linalg::gemm(1.0, a2, b2, 0.5, c2); // k == 0: pure scaling
    for (const double x : c2.data()) EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(SyrkContract, AnyShapeIsLegalIncludingEmpty) {
    Matrix g;
    linalg::gram(Matrix(0, 0), g);
    EXPECT_EQ(g.rows(), 0u);

    linalg::gram(Matrix(0, 4), g); // 0 rows: Gram over nothing is 0
    EXPECT_EQ(g.rows(), 4u);
    for (const double x : g.data()) EXPECT_EQ(x, 0.0);

    linalg::gram(Matrix(4, 0), g);
    EXPECT_EQ(g.rows(), 0u);
}

TEST(CholeskyContract, NonSquareThrowsForEveryBackend) {
    for (const std::string& name : linalg::backend_names()) {
        Matrix rect(2, 3);
        EXPECT_THROW(linalg::backend(name).cholesky(rect),
                     relperf::InvalidArgument)
            << name;
    }
}

TEST(CholeskyContract, NonSpdThrowsNamingTheProblem) {
    Matrix indefinite = Matrix::identity(4);
    indefinite(1, 1) = -2.0;
    try {
        linalg::cholesky_factor(indefinite);
        FAIL() << "expected InvalidArgument";
    } catch (const relperf::InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("positive definite"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CholeskyContract, SolveShapeMismatchesThrow) {
    const Matrix l = Matrix::identity(3);
    Matrix b(2, 1);
    EXPECT_THROW(linalg::solve_lower(l, b), relperf::InvalidArgument);
    EXPECT_THROW(linalg::solve_lower_transposed(l, b),
                 relperf::InvalidArgument);
    Matrix rect(3, 2);
    EXPECT_THROW(linalg::solve_lower(rect, b), relperf::InvalidArgument);
    EXPECT_THROW(linalg::cholesky_solve(Matrix::identity(3), b),
                 relperf::InvalidArgument);
}

TEST(LuContract, NonSquareThrows) {
    EXPECT_THROW((void)linalg::lu_factor(Matrix(2, 3)),
                 relperf::InvalidArgument);
}

TEST(LuContract, SingularMatrixThrows) {
    Matrix singular(3, 3);
    singular(0, 0) = 1.0;
    singular(1, 1) = 1.0; // third row/column entirely zero
    EXPECT_THROW((void)linalg::lu_factor(singular), relperf::InvalidArgument);
}

TEST(LuContract, SolveShapeMismatchThrows) {
    const linalg::LuFactors f = linalg::lu_factor(Matrix::identity(3));
    EXPECT_THROW((void)linalg::lu_solve(f, Matrix(2, 1)),
                 relperf::InvalidArgument);
}

TEST(LuContract, EmptySystemIsLegal) {
    const linalg::LuFactors f = linalg::lu_factor(Matrix(0, 0));
    const Matrix x = linalg::lu_solve(f, Matrix(0, 2));
    EXPECT_EQ(x.rows(), 0u);
    EXPECT_EQ(x.cols(), 2u);
}

TEST(RlsContract, PreconditionsThrow) {
    const Matrix wide = random(3, 5, 1);
    const Matrix b3 = random(3, 3, 2);
    EXPECT_THROW((void)linalg::rls_solve(wide, b3, 0.1),
                 relperf::InvalidArgument);

    const Matrix a = random(5, 3, 3);
    const Matrix b_mismatch = random(4, 3, 4);
    EXPECT_THROW((void)linalg::rls_solve(a, b_mismatch, 0.1),
                 relperf::InvalidArgument);

    const Matrix b = random(5, 3, 5);
    EXPECT_THROW((void)linalg::rls_solve(a, b, -0.5),
                 relperf::InvalidArgument);

    // Residual shape contracts.
    const Matrix z = linalg::rls_solve(a, b, 0.1);
    EXPECT_THROW((void)linalg::rls_residual(a, b, Matrix(4, 3)),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)linalg::rls_residual(a, Matrix(5, 2), z),
                 relperf::InvalidArgument);
}
