#pragma once
//! \file rng.hpp
//! Deterministic pseudo-random number generation for every stochastic
//! component of relperf (noise models, bootstrap resampling, shuffles).
//!
//! Two generators are implemented from scratch:
//!  * SplitMix64 — seed expander / stream splitter,
//!  * Xoshiro256++ — the main generator (Blackman & Vigna 2019).
//!
//! Determinism contract: every relperf API that consumes randomness takes an
//! explicit `Rng&` or a `seed`; two runs with equal seeds produce identical
//! results bit-for-bit on the same platform.

#include <array>
#include <cstdint>
#include <vector>

namespace relperf::stats {

/// SplitMix64: tiny, passes BigCrush on 64-bit outputs; used to expand one
/// 64-bit seed into the 256-bit xoshiro state and to derive child seeds.
class SplitMix64 {
public:
    explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

    constexpr std::uint64_t next() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

/// Xoshiro256++ — fast, high-quality 64-bit generator.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256pp {
public:
    using result_type = std::uint64_t;

    explicit Xoshiro256pp(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~result_type{0}; }

    // This and Rng's uniform draws are defined in the header so that hot
    // loops (the bootstrap comparator draws 2n indices per round) inline them.
    result_type operator()() noexcept {
        const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> s_;
};

/// High-level RNG facade with the distributions relperf needs. All sampling
/// is implemented inline over Xoshiro256++ (no libstdc++ distribution
/// objects, whose algorithms are unspecified and not reproducible across
/// standard libraries).
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0xC0FFEEULL) noexcept : gen_(seed), seed_(seed) {}

    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

    /// Derives an independent child generator (seed mixing via SplitMix64).
    [[nodiscard]] Rng child(std::uint64_t stream) const noexcept;

    /// Raw 64 uniform bits.
    std::uint64_t bits() noexcept { return gen_(); }

    /// Uniform double in [0, 1) with 53-bit resolution.
    double uniform() noexcept {
        // Top 53 bits -> double in [0, 1).
        return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }

    /// Uniform integer in [0, n) without modulo bias (Lemire rejection).
    std::uint64_t uniform_index(std::uint64_t n) noexcept {
        if (n == 0) return 0;
        // Lemire's nearly-divisionless method with rejection.
        std::uint64_t x = gen_();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        auto l = static_cast<std::uint64_t>(m);
        if (l < n) {
            const std::uint64_t threshold = (0 - n) % n;
            while (l < threshold) {
                x = gen_();
                m = static_cast<__uint128_t>(x) * n;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Standard normal via Box–Muller (cached second variate).
    double normal() noexcept;

    /// Normal with given mean / stddev.
    double normal(double mean, double stddev) noexcept;

    /// Lognormal: exp(N(mu_log, sigma_log)).
    double lognormal(double mu_log, double sigma_log) noexcept;

    /// Pareto (Lomax-style tail), scale x_m > 0, shape alpha > 0.
    double pareto(double x_m, double alpha) noexcept;

    /// Bernoulli trial with probability p.
    bool bernoulli(double p) noexcept;

    /// Fisher–Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& values) noexcept {
        for (std::size_t i = values.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(uniform_index(i));
            using std::swap;
            swap(values[i - 1], values[j]);
        }
    }

private:
    Xoshiro256pp gen_;
    std::uint64_t seed_;
    bool has_cached_normal_ = false;
    double cached_normal_ = 0.0;
};

} // namespace relperf::stats
