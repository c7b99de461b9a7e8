#pragma once
//! \file ridge.hpp
//! Ridge (L2-regularized least squares) regression on top of relperf_linalg.
//! Solves (XᵀX + λI) w = Xᵀy via Gram + Cholesky — the same kernels the
//! paper's MathTask exercises, now reused as the learning substrate.
//!
//! Features and targets are standardized internally (centered, unit scale)
//! so the penalty treats all features equally and no explicit bias term is
//! needed.

#include "linalg/matrix.hpp"

#include <span>
#include <vector>

namespace relperf::model {

class RidgeRegressor {
public:
    /// Fits w = argmin ||Xw - y||^2 + lambda ||w||^2 on standardized data.
    /// `rows` must all have the same dimension; lambda >= 0.
    void fit(const std::vector<std::vector<double>>& rows,
             std::span<const double> targets, double lambda);

    /// Predicts one standardized-and-restored target.
    [[nodiscard]] double predict(std::span<const double> row) const;

    [[nodiscard]] bool is_fitted() const noexcept { return fitted_; }
    [[nodiscard]] std::size_t feature_count() const noexcept {
        return weights_.size();
    }
    /// Weights in the standardized space (diagnostics).
    [[nodiscard]] const std::vector<double>& weights() const noexcept {
        return weights_;
    }

private:
    std::vector<double> weights_;      // standardized space
    std::vector<double> feature_mean_;
    std::vector<double> feature_scale_; // 1 for constant features
    double target_mean_ = 0.0;
    bool fitted_ = false;
};

} // namespace relperf::model
