#include "linalg/gemm.hpp"

#include "stats/rng.hpp"
#include "support/error.hpp"
#include "matrix_helpers.hpp"

#include <gtest/gtest.h>

#include <tuple>

using relperf::linalg::Matrix;
namespace linalg = relperf::linalg;

namespace {

Matrix random(std::size_t r, std::size_t c, std::uint64_t seed) {
    relperf::stats::Rng rng(seed);
    return Matrix::random_normal(r, c, rng);
}

} // namespace

TEST(GemmReference, KnownProduct) {
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = 4;
    Matrix b = linalg::identity(2);
    Matrix c(2, 2);
    linalg::gemm_reference(1.0, a, b, 0.0, c);
    EXPECT_TRUE(c == a);
}

TEST(Gemm, IdentityIsNeutral) {
    const Matrix a = random(17, 17, 1);
    const Matrix c = linalg::multiply(a, linalg::identity(17));
    EXPECT_LT(max_abs_diff(c, a), 1e-13);
}

TEST(Gemm, ShapeMismatchThrows) {
    const Matrix a(2, 3);
    const Matrix b(4, 2);
    Matrix c(2, 2);
    EXPECT_THROW(linalg::gemm(1.0, a, b, 0.0, c), relperf::InvalidArgument);
    const Matrix b2(3, 2);
    Matrix bad_c(3, 2);
    EXPECT_THROW(linalg::gemm(1.0, a, b2, 0.0, bad_c), relperf::InvalidArgument);
}

TEST(Gemm, AlphaBetaSemantics) {
    const Matrix a = random(5, 6, 2);
    const Matrix b = random(6, 4, 3);
    Matrix c0(5, 4, 1.0); // existing content
    Matrix c1 = c0;

    linalg::gemm_reference(2.0, a, b, 3.0, c0);
    linalg::gemm(2.0, a, b, 3.0, c1);
    EXPECT_LT(max_abs_diff(c1, c0), 1e-12);
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
    const Matrix a = random(4, 4, 4);
    const Matrix b = random(4, 4, 5);
    Matrix c(4, 4, 2.0);
    linalg::gemm(0.0, a, b, 0.5, c);
    for (const double x : c.data()) EXPECT_DOUBLE_EQ(x, 1.0);
}

// Parameterized agreement sweep: blocked/packed/parallel gemm vs reference,
// covering fringe sizes (non-multiples of the 4x4 micro-kernel) and
// rectangular shapes.
class GemmAgreement
    : public testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmAgreement, MatchesReference) {
    const auto [m, n, k] = GetParam();
    const Matrix a = random(m, k, 10 + m);
    const Matrix b = random(k, n, 20 + n);
    Matrix c_ref(m, n);
    Matrix c_opt(m, n);
    linalg::gemm_reference(1.0, a, b, 0.0, c_ref);
    linalg::gemm(1.0, a, b, 0.0, c_opt);
    EXPECT_LT(max_abs_diff(c_opt, c_ref), 1e-11 * static_cast<double>(k));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmAgreement,
    testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                    std::make_tuple(4, 4, 4), std::make_tuple(16, 16, 16),
                    std::make_tuple(33, 65, 17), std::make_tuple(64, 64, 64),
                    std::make_tuple(100, 50, 75), std::make_tuple(127, 129, 128),
                    std::make_tuple(7, 301, 2), std::make_tuple(256, 64, 300)));

TEST(Gemm, ThreadSettingRoundTrips) {
    const int saved = linalg::gemm_thread_setting();
    linalg::set_gemm_threads(1);
    EXPECT_EQ(linalg::gemm_thread_setting(), 1);
    linalg::set_gemm_threads(4);
    EXPECT_EQ(linalg::gemm_thread_setting(), 4);
    linalg::set_gemm_threads(0); // library default
    EXPECT_EQ(linalg::gemm_thread_setting(), 0);
    EXPECT_GE(linalg::gemm_threads(), 1); // effective team is always >= 1
    linalg::set_gemm_threads(saved);
}

TEST(Gemm, SingleThreadMatchesParallel) {
    const Matrix a = random(96, 80, 6);
    const Matrix b = random(80, 72, 7);
    const int saved = linalg::gemm_thread_setting();

    linalg::set_gemm_threads(1);
    Matrix c1(96, 72);
    linalg::gemm(1.0, a, b, 0.0, c1);

    linalg::set_gemm_threads(0);
    Matrix cn(96, 72);
    linalg::gemm(1.0, a, b, 0.0, cn);

    linalg::set_gemm_threads(saved);
    EXPECT_LT(max_abs_diff(c1, cn), 1e-12);
}

TEST(GemmFlops, Formula) {
    EXPECT_DOUBLE_EQ(linalg::gemm_flops(2, 3, 4), 48.0);
    EXPECT_DOUBLE_EQ(linalg::gemm_flops(0, 3, 4), 0.0);
}
