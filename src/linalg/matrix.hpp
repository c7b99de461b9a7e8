#pragma once
//! \file matrix.hpp
//! Dense row-major matrix of doubles — the container for every linalg kernel.
//!
//! Design notes (C++ Core Guidelines): value semantics with move support, no
//! raw owning pointers, contiguous storage exposed as std::span for kernels,
//! checked element access in the API with unchecked `operator()` kept inline
//! for hot loops.

#include "stats/rng.hpp"

#include <cstddef>
#include <span>
#include <vector>

namespace relperf::linalg {

class Matrix {
public:
    /// Empty 0x0 matrix.
    Matrix() noexcept = default;

    /// rows x cols matrix, zero-initialized.
    Matrix(std::size_t rows, std::size_t cols);

    /// rows x cols matrix filled with `fill`.
    Matrix(std::size_t rows, std::size_t cols, double fill);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
    [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
    [[nodiscard]] bool square() const noexcept { return rows_ == cols_; }

    /// Unchecked element access (hot loops).
    [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] const double& operator()(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    /// Checked element access; throws InvalidArgument out of range.
    [[nodiscard]] double& at(std::size_t r, std::size_t c);
    [[nodiscard]] const double& at(std::size_t r, std::size_t c) const;

    /// Contiguous row-major storage.
    [[nodiscard]] std::span<double> data() noexcept { return data_; }
    [[nodiscard]] std::span<const double> data() const noexcept { return data_; }
    [[nodiscard]] std::span<double> row(std::size_t r);
    [[nodiscard]] std::span<const double> row(std::size_t r) const;

    void fill(double value) noexcept;
    void set_zero() noexcept { fill(0.0); }

    /// Matrix with i.i.d. U(-1, 1) entries — the paper's "randomly generate
    /// A, B" step of Procedure 6.
    [[nodiscard]] static Matrix random_uniform(std::size_t rows, std::size_t cols,
                                               stats::Rng& rng);

    /// Matrix with i.i.d. N(0, 1) entries.
    [[nodiscard]] static Matrix random_normal(std::size_t rows, std::size_t cols,
                                              stats::Rng& rng);

    /// Returns the transpose.
    [[nodiscard]] Matrix transposed() const;

    /// this += alpha * I; requires square.
    void add_scaled_identity(double alpha);

    /// Frobenius norm.
    [[nodiscard]] double frobenius_norm() const noexcept;

    /// Element-wise equality of shapes and values.
    [[nodiscard]] bool operator==(const Matrix& other) const noexcept;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// C = A - B (shape-checked).
[[nodiscard]] Matrix subtract(const Matrix& a, const Matrix& b);

} // namespace relperf::linalg
