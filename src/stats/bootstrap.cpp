#include "stats/bootstrap.hpp"

#include "support/error.hpp"

namespace relperf::stats {

void resample(std::span<const double> sample, std::size_t m, Rng& rng,
              std::vector<double>& out) {
    RELPERF_REQUIRE(!sample.empty(), "resample: empty sample");
    RELPERF_REQUIRE(m > 0, "resample: resample size must be positive");
    out.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        out[i] = sample[static_cast<std::size_t>(rng.uniform_index(sample.size()))];
    }
}

std::vector<double> resample(std::span<const double> sample, std::size_t m, Rng& rng) {
    std::vector<double> out;
    resample(sample, m, rng, out);
    return out;
}

} // namespace relperf::stats
