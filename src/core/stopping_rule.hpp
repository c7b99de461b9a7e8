#pragma once
//! \file stopping_rule.hpp
//! When the adaptive MeasurementEngine stops measuring an algorithm. The
//! engine measures in rounds and clusters once per round; the StoppingRule
//! watches those clusterings and keeps one count per algorithm: the number
//! of consecutive clusterings that gave it the same final class as the one
//! before. The first clustering only seeds the previous classes, and a
//! changed class resets the count to 0. Two stop conditions read that count:
//!
//!  * the stability rule (`confidence == 0`): stop once the count reaches
//!    `stability_rounds`. Purely ordinal; blind to *how decisively* the
//!    class won.
//!  * the confidence rule (`confidence` in (0.5, 1)): stop once the count is
//!    at least 1 and the relative-score margin of the final class over its
//!    runner-up class is significant at that confidence level. The Rep
//!    repeated stochastic sorts of the clusterer are themselves driven by
//!    bootstrap comparisons, so the per-class relative scores are
//!    proportions over a Rep-draw bootstrap ensemble; the rule puts a
//!    closed-form normal CI on the class-vs-runner-up margin of that
//!    ensemble — no new randomness is drawn, and stopping early cannot
//!    perturb any value (per-algorithm RNG prefix-extensibility). The one
//!    repeat is deliberate: a single clustering can be confidently wrong
//!    while the empirical quantiles still drift with fresh samples;
//!    requiring the winning class to survive one measurement extension
//!    makes the confidence a statement about the measured distribution,
//!    not about one batch. `stability_rounds` plays no part here.
//!
//! A rule is stateful across the rounds of one engine run; the engine builds
//! a fresh one per run.

#include "core/clustering.hpp"

#include <cstddef>
#include <vector>

namespace relperf::core {

/// Per-run stopping decisions. The engine calls observe() once per round
/// with the fresh clustering over *all* algorithms, then queries
/// should_stop() for each still-active algorithm.
class StoppingRule {
public:
    /// `stability_rounds` > 0; `confidence` 0 (the stability rule) or in
    /// (0.5, 1) (the confidence rule, one-sided coverage of the margin CI).
    StoppingRule(std::size_t stability_rounds, double confidence);

    /// "stability" or "confidence".
    [[nodiscard]] const char* name() const noexcept;

    /// The z critical value the confidence level resolved to; 0 under the
    /// stability rule (exposed for tests).
    [[nodiscard]] double z() const noexcept { return z_; }

    /// One clustering consulted. `stopped[i]` marks algorithms whose
    /// measurement already ended — their verdicts are never read again, so
    /// their bookkeeping is skipped.
    void observe(const Clustering& clustering, const std::vector<bool>& stopped);

    /// After observe(): is algorithm `alg`'s class settled enough to stop
    /// measuring it?
    [[nodiscard]] bool should_stop(std::size_t alg) const;

private:
    std::size_t stability_rounds_;
    double z_ = 0.0;
    std::vector<std::size_t> repeats_;
    std::vector<bool> stop_;
    std::vector<int> previous_rank_;
};

} // namespace relperf::core
