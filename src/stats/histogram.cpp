#include "stats/histogram.hpp"

#include "stats/descriptive.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <algorithm>
#include <cmath>

namespace relperf::stats {

Histogram::Histogram(std::span<const double> sample, double lo, double hi,
                     std::size_t bin_count)
    : lo_(lo), hi_(hi), counts_(bin_count, 0) {
    RELPERF_REQUIRE(!sample.empty(), "Histogram: empty sample");
    RELPERF_REQUIRE(bin_count > 0, "Histogram: need at least one bin");
    RELPERF_REQUIRE(hi > lo, "Histogram: hi must exceed lo");

    const double width = (hi_ - lo_) / static_cast<double>(bin_count);
    for (const double x : sample) {
        const double offset = (x - lo_) / width;
        auto bin = offset <= 0.0
                       ? std::size_t{0}
                       : static_cast<std::size_t>(offset);
        bin = std::min(bin, bin_count - 1); // clamp top edge + outliers
        ++counts_[bin];
        ++total_;
    }
}

std::size_t Histogram::fd_bin_count(std::span<const double> sample, double lo, double hi) {
    RELPERF_REQUIRE(!sample.empty(), "Histogram: empty sample");
    const std::vector<double> sorted = sorted_copy(sample);
    const double iqr =
        quantile_sorted(sorted, 0.75) - quantile_sorted(sorted, 0.25);
    const double n = static_cast<double>(sample.size());
    double width = 2.0 * iqr / std::cbrt(n); // Freedman–Diaconis
    if (width <= 0.0) {
        // Degenerate IQR: fall back to Sturges.
        const double bins = std::ceil(std::log2(n) + 1.0);
        return static_cast<std::size_t>(std::max(1.0, bins));
    }
    const double bins = std::ceil((hi - lo) / width);
    return static_cast<std::size_t>(std::clamp(bins, 1.0, 512.0));
}

Histogram Histogram::automatic(std::span<const double> sample) {
    RELPERF_REQUIRE(!sample.empty(), "Histogram: empty sample");
    const auto [lo_it, hi_it] = std::minmax_element(sample.begin(), sample.end());
    double lo = *lo_it;
    double hi = *hi_it;
    if (lo == hi) { // widen degenerate range
        lo -= 0.5;
        hi += 0.5;
    }
    return Histogram(sample, lo, hi, fd_bin_count(sample, lo, hi));
}

std::size_t Histogram::count(std::size_t bin) const {
    RELPERF_REQUIRE(bin < counts_.size(), "Histogram: bin out of range");
    return counts_[bin];
}

double Histogram::bin_center(std::size_t bin) const {
    RELPERF_REQUIRE(bin < counts_.size(), "Histogram: bin out of range");
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + (static_cast<double>(bin) + 0.5) * width;
}

std::string Histogram::render_ascii(std::size_t width, const std::string& title) const {
    const std::size_t peak = *std::max_element(counts_.begin(), counts_.end());
    std::string out;
    if (!title.empty()) out += title + '\n';
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        const std::size_t bar =
            peak == 0 ? 0
                      : (counts_[b] * width + peak / 2) / peak; // rounded scale
        out += str::format("%12.6g | ", bin_center(b));
        out += std::string(bar, '#');
        out += str::format("  (%zu)\n", counts_[b]);
    }
    return out;
}

} // namespace relperf::stats
