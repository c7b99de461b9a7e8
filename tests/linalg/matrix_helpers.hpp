#pragma once
//! \file matrix_helpers.hpp
//! Matrix helpers that serve the linalg tests only: the identity that the
//! suites build inputs from, and the max-abs-difference that they compare
//! kernels and backends with.

#include "linalg/matrix.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cmath>

namespace relperf::linalg {

/// Identity of size n.
[[nodiscard]] inline Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

/// Max |a_ij - b_ij|; requires equal shapes.
[[nodiscard]] inline double max_abs_diff(const Matrix& a, const Matrix& b) {
    RELPERF_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                    "max_abs_diff: shape mismatch");
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
    }
    return worst;
}

} // namespace relperf::linalg
