#include "linalg/matrix.hpp"

#include "stats/rng.hpp"
#include "support/error.hpp"
#include "matrix_helpers.hpp"

#include <gtest/gtest.h>

#include <cmath>

using relperf::linalg::Matrix;
namespace linalg = relperf::linalg;

TEST(Matrix, DefaultIsEmpty) {
    const Matrix m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructsZeroInitialized) {
    const Matrix m(3, 4);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.size(), 12u);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(m(r, c), 0.0);
    }
}

TEST(Matrix, FillConstructorAndFill) {
    Matrix m(2, 2, 7.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 7.0);
    m.fill(-1.0);
    EXPECT_DOUBLE_EQ(m(0, 0), -1.0);
    m.set_zero();
    EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

TEST(Matrix, CheckedAccessThrowsOutOfRange) {
    Matrix m(2, 3);
    EXPECT_NO_THROW((void)m.at(1, 2));
    EXPECT_THROW((void)m.at(2, 0), relperf::InvalidArgument);
    EXPECT_THROW((void)m.at(0, 3), relperf::InvalidArgument);
    const Matrix& cm = m;
    EXPECT_THROW((void)cm.at(5, 5), relperf::InvalidArgument);
}

TEST(Matrix, RowSpanViewsStorage) {
    Matrix m(2, 3);
    m(1, 0) = 5.0;
    auto row = m.row(1);
    EXPECT_EQ(row.size(), 3u);
    EXPECT_DOUBLE_EQ(row[0], 5.0);
    row[2] = 9.0;
    EXPECT_DOUBLE_EQ(m(1, 2), 9.0);
    EXPECT_THROW((void)m.row(2), relperf::InvalidArgument);
}

TEST(Matrix, IdentityHasOnesOnDiagonal) {
    const Matrix eye = linalg::identity(4);
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 4; ++c) {
            EXPECT_DOUBLE_EQ(eye(r, c), r == c ? 1.0 : 0.0);
        }
    }
}

TEST(Matrix, RandomUniformIsSeedDeterministicAndBounded) {
    relperf::stats::Rng a(3);
    relperf::stats::Rng b(3);
    const Matrix ma = Matrix::random_uniform(5, 7, a);
    const Matrix mb = Matrix::random_uniform(5, 7, b);
    EXPECT_TRUE(ma == mb);
    for (const double x : ma.data()) {
        EXPECT_GE(x, -1.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Matrix, TransposeRoundTrips) {
    relperf::stats::Rng rng(5);
    const Matrix m = Matrix::random_normal(37, 53, rng); // non-multiple of block
    const Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 53u);
    EXPECT_EQ(t.cols(), 37u);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            EXPECT_DOUBLE_EQ(t(c, r), m(r, c));
        }
    }
    EXPECT_TRUE(t.transposed() == m);
}

TEST(Matrix, AddScaledIdentity) {
    Matrix m(3, 3, 1.0);
    m.add_scaled_identity(2.5);
    EXPECT_DOUBLE_EQ(m(0, 0), 3.5);
    EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
    Matrix rect(2, 3);
    EXPECT_THROW(rect.add_scaled_identity(1.0), relperf::InvalidArgument);
}

TEST(Matrix, FrobeniusNormKnownValue) {
    Matrix m(2, 2);
    m(0, 0) = 3.0;
    m(1, 1) = 4.0;
    EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
    EXPECT_DOUBLE_EQ(Matrix(3, 3).frobenius_norm(), 0.0);
}

TEST(Matrix, FrobeniusNormIsOverflowSafe) {
    Matrix m(1, 2);
    m(0, 0) = 1e200;
    m(0, 1) = 1e200;
    EXPECT_NEAR(m.frobenius_norm() / (std::sqrt(2.0) * 1e200), 1.0, 1e-12);
}

TEST(Matrix, MaxAbsDiffAndEquality) {
    Matrix a(2, 2, 1.0);
    Matrix b(2, 2, 1.0);
    EXPECT_TRUE(a == b);
    b(1, 0) = 1.25;
    EXPECT_FALSE(a == b);
    EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.25);
    const Matrix c(2, 3);
    EXPECT_THROW((void)max_abs_diff(a, c), relperf::InvalidArgument);
}

TEST(Matrix, AddAndSubtract) {
    Matrix a(2, 2, 3.0);
    Matrix b(2, 2, 1.0);
    const Matrix diff = linalg::subtract(a, b);
    EXPECT_DOUBLE_EQ(diff(1, 1), 2.0);
    const Matrix c(2, 3);
    EXPECT_THROW((void)linalg::subtract(a, c), relperf::InvalidArgument);
}
