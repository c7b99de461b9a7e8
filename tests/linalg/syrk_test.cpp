#include "linalg/syrk.hpp"

#include "linalg/gemm.hpp"
#include "stats/rng.hpp"
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

class GramAgreement : public testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GramAgreement, MatchesExplicitTransposeMultiply) {
    const auto [m, n] = GetParam();
    const Matrix a = random(m, n, 100 + m + n);
    const Matrix g = linalg::gram(a);
    const Matrix expected = linalg::multiply(a.transposed(), a);
    ASSERT_EQ(g.rows(), static_cast<std::size_t>(n));
    ASSERT_EQ(g.cols(), static_cast<std::size_t>(n));
    EXPECT_LT(max_abs_diff(g, expected), 1e-11 * m);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GramAgreement,
                         testing::Values(std::make_pair(1, 1),
                                         std::make_pair(5, 3),
                                         std::make_pair(3, 5),
                                         std::make_pair(64, 64),
                                         std::make_pair(100, 65),
                                         std::make_pair(130, 129)));

TEST(Gram, ResultIsExactlySymmetric) {
    const Matrix a = random(50, 40, 9);
    const Matrix g = linalg::gram(a);
    for (std::size_t i = 0; i < g.rows(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            EXPECT_DOUBLE_EQ(g(i, j), g(j, i)); // mirrored, bitwise equal
        }
    }
}

TEST(Gram, DiagonalIsNonNegative) {
    const Matrix a = random(30, 30, 10);
    const Matrix g = linalg::gram(a);
    for (std::size_t i = 0; i < g.rows(); ++i) EXPECT_GE(g(i, i), 0.0);
}

TEST(Gram, ReusesOutputStorage) {
    const Matrix a = random(20, 10, 11);
    Matrix g(10, 10, 99.0); // correctly sized, dirty content
    linalg::gram(a, g);
    const Matrix expected = linalg::multiply(a.transposed(), a);
    EXPECT_LT(max_abs_diff(g, expected), 1e-11);
}

TEST(GramFlops, Formula) {
    EXPECT_DOUBLE_EQ(linalg::gram_flops(10, 4), 4.0 * 5.0 * 10.0);
}
