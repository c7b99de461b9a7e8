#include "model/ridge.hpp"

#include "stats/rng.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <vector>

using relperf::model::RidgeRegressor;
using relperf::stats::Rng;

namespace {

/// Synthetic dataset y = w . x + b with optional noise.
struct Synthetic {
    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
};

Synthetic make_linear(const std::vector<double>& w, double b, int n,
                      double noise_sd, std::uint64_t seed) {
    Rng rng(seed);
    Synthetic data;
    for (int i = 0; i < n; ++i) {
        std::vector<double> row;
        double y = b;
        for (const double wj : w) {
            const double x = rng.uniform(-2.0, 2.0);
            row.push_back(x);
            y += wj * x;
        }
        if (noise_sd > 0.0) y += rng.normal(0.0, noise_sd);
        data.rows.push_back(std::move(row));
        data.targets.push_back(y);
    }
    return data;
}

/// Coefficient of determination of `reg` on a dataset (1 = perfect).
double r_squared(const RidgeRegressor& reg, const Synthetic& data) {
    double y_mean = 0.0;
    for (const double y : data.targets) y_mean += y;
    y_mean /= static_cast<double>(data.targets.size());
    double ss_res = 0.0;
    double ss_tot = 0.0;
    for (std::size_t i = 0; i < data.rows.size(); ++i) {
        const double err = data.targets[i] - reg.predict(data.rows[i]);
        ss_res += err * err;
        const double dev = data.targets[i] - y_mean;
        ss_tot += dev * dev;
    }
    return 1.0 - ss_res / ss_tot;
}

} // namespace

TEST(Ridge, RecoversNoiselessLinearFunction) {
    const Synthetic data = make_linear({2.0, -1.5, 0.5}, 3.0, 50, 0.0, 1);
    RidgeRegressor reg;
    reg.fit(data.rows, data.targets, 0.0);
    for (std::size_t i = 0; i < data.rows.size(); ++i) {
        EXPECT_NEAR(reg.predict(data.rows[i]), data.targets[i], 1e-6);
    }
    EXPECT_NEAR(r_squared(reg, data), 1.0, 1e-9);
}

TEST(Ridge, GeneralizesToUnseenPoints) {
    const Synthetic train = make_linear({1.0, 2.0}, -1.0, 100, 0.0, 2);
    const Synthetic test = make_linear({1.0, 2.0}, -1.0, 20, 0.0, 3);
    RidgeRegressor reg;
    reg.fit(train.rows, train.targets, 1e-6);
    for (std::size_t i = 0; i < test.rows.size(); ++i) {
        EXPECT_NEAR(reg.predict(test.rows[i]), test.targets[i], 1e-3);
    }
}

TEST(Ridge, NoisyFitIsApproximate) {
    const Synthetic data = make_linear({2.0}, 0.0, 400, 0.3, 4);
    RidgeRegressor reg;
    reg.fit(data.rows, data.targets, 1e-3);
    const double r2 = r_squared(reg, data);
    EXPECT_GT(r2, 0.9);
    EXPECT_LT(r2, 1.0);
}

TEST(Ridge, LargerLambdaShrinksWeights) {
    const Synthetic data = make_linear({5.0, -5.0}, 0.0, 60, 0.1, 5);
    RidgeRegressor weak;
    RidgeRegressor strong;
    weak.fit(data.rows, data.targets, 1e-6);
    strong.fit(data.rows, data.targets, 1e3);
    double norm_weak = 0.0;
    double norm_strong = 0.0;
    for (const double w : weak.weights()) norm_weak += w * w;
    for (const double w : strong.weights()) norm_strong += w * w;
    EXPECT_LT(norm_strong, 0.5 * norm_weak);
}

TEST(Ridge, HandlesConstantFeatures) {
    // A constant column must not break standardization or the solve.
    std::vector<std::vector<double>> rows = {
        {1.0, 7.0}, {2.0, 7.0}, {3.0, 7.0}, {4.0, 7.0}};
    const std::vector<double> targets = {2.0, 4.0, 6.0, 8.0};
    RidgeRegressor reg;
    reg.fit(rows, targets, 0.0);
    const std::vector<double> probe = {2.5, 7.0};
    EXPECT_NEAR(reg.predict(probe), 5.0, 1e-6);
}

TEST(Ridge, UnderdeterminedSystemStillSolves) {
    // More features than samples: the ridge floor keeps the system SPD.
    const Synthetic data = make_linear({1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, 0.0, 4,
                                       0.0, 6);
    RidgeRegressor reg;
    reg.fit(data.rows, data.targets, 1e-2);
    // Training points are fit reasonably (not exactly: regularized).
    EXPECT_GT(r_squared(reg, data), 0.5);
}

TEST(Ridge, InvalidInputsThrow) {
    RidgeRegressor reg;
    EXPECT_THROW(reg.fit({}, std::vector<double>{}, 0.0), relperf::InvalidArgument);
    EXPECT_THROW(reg.fit({{1.0}}, std::vector<double>{1.0, 2.0}, 0.0),
                 relperf::InvalidArgument);
    EXPECT_THROW(reg.fit({{1.0}, {1.0, 2.0}}, std::vector<double>{1.0, 2.0}, 0.0),
                 relperf::InvalidArgument);
    EXPECT_THROW(reg.fit({{1.0}}, std::vector<double>{1.0}, -1.0),
                 relperf::InvalidArgument);
    const std::vector<double> one = {1.0};
    EXPECT_THROW((void)reg.predict(one), relperf::InvalidArgument);

    reg.fit({{1.0}, {2.0}}, std::vector<double>{1.0, 2.0}, 0.0);
    const std::vector<double> two = {1.0, 2.0};
    EXPECT_THROW((void)reg.predict(two), relperf::InvalidArgument);
}
