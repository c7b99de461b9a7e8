#include "stats/rng.hpp"

#include <cmath>

namespace relperf::stats {

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : s_) word = sm.next();
}

Rng Rng::child(std::uint64_t stream) const noexcept {
    SplitMix64 sm(seed_ ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
    return Rng(sm.next());
}

double Rng::normal() noexcept {
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    // Box–Muller; u1 in (0,1] to avoid log(0).
    double u1 = 1.0 - uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cached_normal_ = radius * std::sin(angle);
    has_cached_normal_ = true;
    return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
}

double Rng::lognormal(double mu_log, double sigma_log) noexcept {
    return std::exp(normal(mu_log, sigma_log));
}

double Rng::pareto(double x_m, double alpha) noexcept {
    return x_m / std::pow(1.0 - uniform(), 1.0 / alpha);
}

bool Rng::bernoulli(double p) noexcept {
    return uniform() < p;
}

} // namespace relperf::stats
