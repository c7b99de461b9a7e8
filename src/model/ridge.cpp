#include "model/ridge.hpp"

#include "linalg/cholesky.hpp"
#include "linalg/gemm.hpp"
#include "linalg/syrk.hpp"
#include "support/error.hpp"

#include <cmath>

namespace relperf::model {

void RidgeRegressor::fit(const std::vector<std::vector<double>>& rows,
                         std::span<const double> targets, double lambda) {
    RELPERF_REQUIRE(!rows.empty(), "RidgeRegressor: no training rows");
    RELPERF_REQUIRE(rows.size() == targets.size(),
                    "RidgeRegressor: row/target count mismatch");
    RELPERF_REQUIRE(lambda >= 0.0, "RidgeRegressor: lambda must be >= 0");
    const std::size_t n = rows.size();
    const std::size_t p = rows.front().size();
    RELPERF_REQUIRE(p > 0, "RidgeRegressor: empty feature vectors");
    for (const auto& row : rows) {
        RELPERF_REQUIRE(row.size() == p, "RidgeRegressor: ragged feature rows");
    }

    // Standardize features (constant columns get scale 1 => standardized 0,
    // harmless under the ridge penalty).
    feature_mean_.assign(p, 0.0);
    feature_scale_.assign(p, 1.0);
    for (std::size_t j = 0; j < p; ++j) {
        double sum = 0.0;
        for (const auto& row : rows) sum += row[j];
        feature_mean_[j] = sum / static_cast<double>(n);
        double ssq = 0.0;
        for (const auto& row : rows) {
            const double d = row[j] - feature_mean_[j];
            ssq += d * d;
        }
        const double sd = std::sqrt(ssq / static_cast<double>(n));
        feature_scale_[j] = sd > 0.0 ? sd : 1.0;
    }
    target_mean_ = 0.0;
    for (const double y : targets) target_mean_ += y;
    target_mean_ /= static_cast<double>(n);

    linalg::Matrix x(n, p);
    linalg::Matrix y(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
            x(i, j) = (rows[i][j] - feature_mean_[j]) / feature_scale_[j];
        }
        y(i, 0) = targets[i] - target_mean_;
    }

    // Normal equations with ridge: (XᵀX + lambda I) w = Xᵀ y.
    linalg::Matrix gram = linalg::gram(x);
    // Floor keeps the system SPD even with lambda == 0 and n < p.
    gram.add_scaled_identity(lambda + 1e-10);
    linalg::Matrix rhs(p, 1);
    linalg::gemm(1.0, x.transposed(), y, 0.0, rhs);
    linalg::cholesky_factor(gram);
    linalg::solve_lower(gram, rhs);
    linalg::solve_lower_transposed(gram, rhs);

    weights_.resize(p);
    for (std::size_t j = 0; j < p; ++j) weights_[j] = rhs(j, 0);
    fitted_ = true;
}

double RidgeRegressor::predict(std::span<const double> row) const {
    RELPERF_REQUIRE(fitted_, "RidgeRegressor: predict before fit");
    RELPERF_REQUIRE(row.size() == weights_.size(),
                    "RidgeRegressor: feature dimension mismatch");
    double acc = target_mean_;
    for (std::size_t j = 0; j < row.size(); ++j) {
        acc += weights_[j] * (row[j] - feature_mean_[j]) / feature_scale_[j];
    }
    return acc;
}

} // namespace relperf::model
