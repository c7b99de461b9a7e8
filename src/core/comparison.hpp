#pragma once
//! \file comparison.hpp
//! The three-way comparison abstraction at the center of the paper: comparing
//! two algorithms means comparing two *distributions* of measurements, and
//! the outcome is one of "better", "equivalent", "worse" (Sec. I/III).

#include "stats/rng.hpp"

#include <span>
#include <string>

namespace relperf::core {

/// Outcome of comparing algorithm `a` against algorithm `b`.
/// For execution times, `Better` means `a` is faster than `b`.
enum class Ordering {
    Worse,      ///< a performs worse than b  (paper: a < b).
    Equivalent, ///< distributions overlap significantly (paper: a ~ b).
    Better,     ///< a performs better than b (paper: a > b).
};

/// Flips the perspective: compare(a, b) == reverse(compare(b, a)) must hold
/// for any sane comparator (property-tested).
[[nodiscard]] constexpr Ordering reverse(Ordering o) noexcept {
    switch (o) {
        case Ordering::Worse: return Ordering::Better;
        case Ordering::Better: return Ordering::Worse;
        case Ordering::Equivalent: return Ordering::Equivalent;
    }
    return Ordering::Equivalent;
}

/// Paper-style symbol: "<", "~", ">".
[[nodiscard]] const char* to_symbol(Ordering o) noexcept;

/// Distribution-level three-way comparator interface.
///
/// Implementations may be stochastic (the bootstrap comparator draws
/// resamples); all randomness flows through the caller's Rng so repeated
/// clustering (Procedure 4) sees independent comparison draws while the whole
/// analysis stays reproducible under a fixed seed.
///
/// compare() may run concurrently: a RelativeClusterer whose
/// ClustererConfig::workers is greater than 1 calls it on one comparator
/// object from several threads at once, each call with its own Rng. So an
/// implementation must be safe to call concurrently, or be used with
/// workers = 1. BootstrapComparator keeps its scratch thread_local and counts
/// with relaxed atomics; MannWhitneyComparator, KsComparator and
/// SummaryComparator are stateless.
class Comparator {
public:
    virtual ~Comparator() = default;

    /// Three-way comparison of measurement samples `a` vs `b`
    /// (lower values are better: execution time, energy, ...).
    [[nodiscard]] virtual Ordering compare(std::span<const double> a,
                                           std::span<const double> b,
                                           stats::Rng& rng) const = 0;

    /// Short identifier for reports ("bootstrap", "mann-whitney", ...).
    [[nodiscard]] virtual std::string name() const = 0;
};

} // namespace relperf::core
