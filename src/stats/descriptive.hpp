#pragma once
//! \file descriptive.hpp
//! Descriptive statistics over samples of performance measurements.
//!
//! The paper's premise (Sec. I/III) is that a *single* summary number cannot
//! represent a noisy measurement distribution; nevertheless summaries are
//! needed for reports, calibration and the baseline comparators. This header
//! provides numerically-stable single-pass accumulation (Welford) and
//! order statistics (type-7 quantiles, the R/NumPy default).

#include <cstddef>
#include <span>
#include <vector>

namespace relperf::stats {

/// Single-pass mean/variance accumulator (Welford's algorithm).
class RunningStats {
public:
    void add(double x) noexcept;
    void merge(const RunningStats& other) noexcept;

    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
    /// Unbiased sample variance (n-1 denominator); 0 for n < 2.
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    [[nodiscard]] double min() const noexcept { return min_; }
    [[nodiscard]] double max() const noexcept { return max_; }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Five-number-plus summary of a sample.
struct Summary {
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double q25 = 0.0;
    double median = 0.0;
    double q75 = 0.0;
    double max = 0.0;
    /// Coefficient of variation, stddev / mean (0 when mean == 0).
    double cv = 0.0;
};

/// Computes the full Summary; throws InvalidArgument on empty input.
[[nodiscard]] Summary summarize(std::span<const double> sample);

/// Mean of a sample; throws InvalidArgument on empty input.
[[nodiscard]] double mean(std::span<const double> sample);

/// Unbiased sample variance; 0 for fewer than two elements.
[[nodiscard]] double variance(std::span<const double> sample);

/// Sample standard deviation.
[[nodiscard]] double stddev(std::span<const double> sample);

/// Type-7 linear-interpolation quantile of *sorted* data, p in [0,1].
/// Precondition (checked): data non-empty, ascending.
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double p);

/// Type-7 quantile via partial selection (std::nth_element) instead of a
/// full sort: O(n) expected vs O(n log n). Reorders `sample` in place.
/// Bit-identical to quantile_sorted on the sorted data — the interpolation
/// reads the same two order statistics with the same arithmetic (asserted in
/// tests over randomized inputs). For data that is scratch anyway, such as
/// mad()'s deviations.
[[nodiscard]] double quantile_partial(std::span<double> sample, double p);

/// Quantile of unsorted data (copies + sorts internally).
[[nodiscard]] double quantile(std::span<const double> sample, double p);

/// Median convenience wrapper.
[[nodiscard]] double median(std::span<const double> sample);

/// Median absolute deviation (scaled by 1.4826 for normal consistency).
[[nodiscard]] double mad(std::span<const double> sample);

/// Mean after removing the `trim` fraction from each tail (0 <= trim < 0.5).
[[nodiscard]] double trimmed_mean(std::span<const double> sample, double trim);

/// Geometric mean; requires strictly positive values.
[[nodiscard]] double geometric_mean(std::span<const double> sample);

/// Inverse standard-normal CDF (the z such that Phi(z) = p), p in (0, 1).
/// Acklam's rational approximation refined by one Halley step — absolute
/// error below 1e-9 across the domain, deterministic (pure arithmetic, no
/// tables, no randomness). Used by the confidence-targeted stopping rule to
/// turn a confidence level into a z critical value. Throws InvalidArgument
/// outside (0, 1).
[[nodiscard]] double normal_quantile(double p);

/// Returns a sorted copy.
[[nodiscard]] std::vector<double> sorted_copy(std::span<const double> sample);

/// True if `values` is ascending (non-strict).
[[nodiscard]] bool is_sorted_ascending(std::span<const double> values) noexcept;

} // namespace relperf::stats
