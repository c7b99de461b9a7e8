#include "linalg/matrix.hpp"

#include "support/error.hpp"

#include <cmath>

namespace relperf::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill_value)
    : rows_(rows), cols_(cols), data_(rows * cols, fill_value) {}

double& Matrix::at(std::size_t r, std::size_t c) {
    RELPERF_REQUIRE(r < rows_ && c < cols_, "Matrix::at: index out of range");
    return (*this)(r, c);
}

const double& Matrix::at(std::size_t r, std::size_t c) const {
    RELPERF_REQUIRE(r < rows_ && c < cols_, "Matrix::at: index out of range");
    return (*this)(r, c);
}

std::span<double> Matrix::row(std::size_t r) {
    RELPERF_REQUIRE(r < rows_, "Matrix::row: index out of range");
    return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
    RELPERF_REQUIRE(r < rows_, "Matrix::row: index out of range");
    return {data_.data() + r * cols_, cols_};
}

void Matrix::fill(double value) noexcept {
    for (double& x : data_) x = value;
}

Matrix Matrix::random_uniform(std::size_t rows, std::size_t cols, stats::Rng& rng) {
    Matrix m(rows, cols);
    for (double& x : m.data_) x = rng.uniform(-1.0, 1.0);
    return m;
}

Matrix Matrix::random_normal(std::size_t rows, std::size_t cols, stats::Rng& rng) {
    Matrix m(rows, cols);
    for (double& x : m.data_) x = rng.normal();
    return m;
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    constexpr std::size_t kBlock = 32; // cache-blocked transpose
    for (std::size_t rb = 0; rb < rows_; rb += kBlock) {
        for (std::size_t cb = 0; cb < cols_; cb += kBlock) {
            const std::size_t r_end = std::min(rb + kBlock, rows_);
            const std::size_t c_end = std::min(cb + kBlock, cols_);
            for (std::size_t r = rb; r < r_end; ++r) {
                for (std::size_t c = cb; c < c_end; ++c) {
                    t(c, r) = (*this)(r, c);
                }
            }
        }
    }
    return t;
}

void Matrix::add_scaled_identity(double alpha) {
    RELPERF_REQUIRE(square(), "add_scaled_identity: matrix must be square");
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) += alpha;
}

double Matrix::frobenius_norm() const noexcept {
    // Scaled accumulation to avoid overflow on large magnitudes.
    double scale = 0.0;
    double ssq = 1.0;
    for (const double x : data_) {
        if (x == 0.0) continue;
        const double ax = std::fabs(x);
        if (scale < ax) {
            ssq = 1.0 + ssq * (scale / ax) * (scale / ax);
            scale = ax;
        } else {
            ssq += (ax / scale) * (ax / scale);
        }
    }
    return scale * std::sqrt(ssq);
}

bool Matrix::operator==(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
}

Matrix subtract(const Matrix& a, const Matrix& b) {
    RELPERF_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                    "subtract: shape mismatch");
    Matrix c(a.rows(), a.cols());
    const std::span<const double> pa = a.data();
    const std::span<const double> pb = b.data();
    const std::span<double> pc = c.data();
    for (std::size_t i = 0; i < pc.size(); ++i) pc[i] = pa[i] - pb[i];
    return c;
}

} // namespace relperf::linalg
