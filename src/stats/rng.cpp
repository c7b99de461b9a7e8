#include "stats/rng.hpp"

#include <cmath>

namespace relperf::stats {

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : s_) word = sm.next();
}

void Xoshiro256pp::jump() noexcept {
    static constexpr std::uint64_t kJump[] = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (const std::uint64_t jump_word : kJump) {
        for (int b = 0; b < 64; ++b) {
            if (jump_word & (std::uint64_t{1} << b)) {
                s0 ^= s_[0];
                s1 ^= s_[1];
                s2 ^= s_[2];
                s3 ^= s_[3];
            }
            (void)(*this)();
        }
    }
    s_ = {s0, s1, s2, s3};
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

double Rng::exponential(double lambda) noexcept {
    return -std::log(1.0 - uniform()) / lambda;
}

double Rng::pareto(double x_m, double alpha) noexcept {
    return x_m / std::pow(1.0 - uniform(), 1.0 / alpha);
}

bool Rng::bernoulli(double p) noexcept {
    return uniform() < p;
}

} // namespace relperf::stats
