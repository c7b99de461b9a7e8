#include "stats/descriptive.hpp"

#include "support/error.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace relperf::stats {

void RunningStats::add(double x) noexcept {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept {
    return std::sqrt(variance());
}

double mean(std::span<const double> sample) {
    RELPERF_REQUIRE(!sample.empty(), "mean: empty sample");
    RunningStats acc;
    for (const double x : sample) acc.add(x);
    return acc.mean();
}

std::vector<double> sorted_copy(std::span<const double> sample) {
    std::vector<double> out(sample.begin(), sample.end());
    std::sort(out.begin(), out.end());
    return out;
}

bool is_sorted_ascending(std::span<const double> values) noexcept {
    return std::is_sorted(values.begin(), values.end());
}

double quantile_sorted(std::span<const double> sorted, double p) {
    RELPERF_REQUIRE(!sorted.empty(), "quantile_sorted: empty sample");
    RELPERF_REQUIRE(p >= 0.0 && p <= 1.0, "quantile_sorted: p must be in [0,1]");
    RELPERF_REQUIRE(is_sorted_ascending(sorted), "quantile_sorted: data not sorted");
    if (sorted.size() == 1) return sorted[0];
    const double h = p * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = h - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::span<const double> sample, double p) {
    const std::vector<double> sorted = sorted_copy(sample);
    return quantile_sorted(sorted, p);
}

double median(std::span<const double> sample) {
    return quantile(sample, 0.5);
}

Summary summarize(std::span<const double> sample) {
    RELPERF_REQUIRE(!sample.empty(), "summarize: empty sample");
    const std::vector<double> sorted = sorted_copy(sample);
    RunningStats acc;
    for (const double x : sorted) acc.add(x);

    Summary s;
    s.count = acc.count();
    s.mean = acc.mean();
    s.stddev = acc.stddev();
    s.min = acc.min();
    s.max = acc.max();
    s.q25 = quantile_sorted(sorted, 0.25);
    s.median = quantile_sorted(sorted, 0.50);
    s.q75 = quantile_sorted(sorted, 0.75);
    s.cv = s.mean != 0.0 ? s.stddev / s.mean : 0.0;
    return s;
}

double normal_quantile(double p) {
    RELPERF_REQUIRE(p > 0.0 && p < 1.0,
                    "normal_quantile: p must be in (0, 1)");
    // Acklam's rational approximation (2003): three branches with relative
    // error < 1.15e-9, refined below by one Halley step against the actual
    // normal CDF (std::erfc), which pushes the absolute error past 1e-12 in
    // the central region.
    static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                   -2.759285104469687e+02, 1.383577518672690e+02,
                                   -3.066479806614716e+01, 2.506628277459239e+00};
    static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                   -1.556989798598866e+02, 6.680131188771972e+01,
                                   -1.328068155288572e+01};
    static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                   -2.400758277161838e+00, -2.549732539343734e+00,
                                   4.374664141464968e+00,  2.938163982698783e+00};
    static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                   2.445134137142996e+00, 3.754408661907416e+00};
    constexpr double p_low = 0.02425;

    double x = 0.0;
    if (p < p_low) {
        const double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= 1.0 - p_low) {
        const double q = p - 0.5;
        const double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
             a[5]) *
            q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
             1.0);
    } else {
        const double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
              c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }

    // One Halley refinement step: e = Phi(x) - p, u = e / phi(x).
    constexpr double inv_sqrt_2pi = 0.3989422804014327;
    const double e = 0.5 * std::erfc(-x / std::sqrt(2.0)) - p;
    const double u = e / (inv_sqrt_2pi * std::exp(-x * x / 2.0));
    x = x - u / (1.0 + x * u / 2.0);
    return x;
}

} // namespace relperf::stats
