#pragma once
//! \file histogram.hpp
//! Fixed-bin histograms over a caller-chosen range plus an ASCII renderer
//! used by `bench/fig1b_distributions` to print the paper's Figure 1b as
//! terminal output.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace relperf::stats {

/// An immutable, already-binned histogram.
class Histogram {
public:
    /// Bins `sample` into `bin_count` equal-width bins over [lo, hi].
    /// Values outside [lo, hi] are clamped into the edge bins so that
    /// histograms of several algorithms can share one axis.
    Histogram(std::span<const double> sample, double lo, double hi, std::size_t bin_count);

    [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
    [[nodiscard]] double lo() const noexcept { return lo_; }
    [[nodiscard]] double hi() const noexcept { return hi_; }
    [[nodiscard]] std::size_t count(std::size_t bin) const;
    [[nodiscard]] std::size_t total() const noexcept { return total_; }
    /// Center value of bin `bin`.
    [[nodiscard]] double bin_center(std::size_t bin) const;

    /// Renders a horizontal-bar ASCII histogram.
    /// `width` = maximum bar width in characters.
    [[nodiscard]] std::string render_ascii(std::size_t width = 50,
                                           const std::string& title = "") const;

private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

} // namespace relperf::stats
