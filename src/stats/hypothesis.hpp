#pragma once
//! \file hypothesis.hpp
//! Classical two-sample tests and effect sizes. These serve as *baseline
//! comparators* against which the paper's bootstrap comparator is ablated
//! (`bench/ablation_comparators`), and as diagnostics in reports.

#include <span>

namespace relperf::stats {

/// Result of a two-sample location test.
struct TestResult {
    double statistic = 0.0; ///< Test statistic (U for MW, D for KS).
    double z = 0.0;         ///< Normal-approximation z-score (MW only).
    double p_value = 1.0;   ///< Two-sided p-value.
};

/// Mann–Whitney U test (a.k.a. Wilcoxon rank-sum), two-sided, with normal
/// approximation, continuity correction, and tie correction of the variance.
/// Suitable for n, m >= 8; exact enumeration is deliberately not implemented
/// (relperf never compares fewer than ~10 measurements).
[[nodiscard]] TestResult mann_whitney_u(std::span<const double> a,
                                        std::span<const double> b);

/// Two-sample Kolmogorov–Smirnov test with the asymptotic Kolmogorov
/// distribution for the p-value.
[[nodiscard]] TestResult kolmogorov_smirnov(std::span<const double> a,
                                            std::span<const double> b);

/// Cliff's delta in [-1, 1]: P(a < b) - P(a > b).
/// Negative => a tends to be larger (slower, for time measurements).
[[nodiscard]] double cliffs_delta(std::span<const double> a, std::span<const double> b);

/// Asymptotic survival function of the Kolmogorov distribution,
/// Q(lambda) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2); exposed for tests.
[[nodiscard]] double kolmogorov_survival(double lambda) noexcept;

/// Standard normal survival function P(Z > z); exposed for tests.
[[nodiscard]] double normal_survival(double z) noexcept;

} // namespace relperf::stats
