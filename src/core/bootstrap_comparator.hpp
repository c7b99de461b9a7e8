#pragma once
//! \file bootstrap_comparator.hpp
//! The paper's comparison strategy (Sec. III; ref. [15] Sec. IV): quantify
//! the overlap of two measurement distributions by repeated bootstrap
//! resampling and classify the pair as better / equivalent / worse.
//!
//! Per round: draw with-replacement resamples of both samples, draw a random
//! quantile q ~ U[quantile_lo, quantile_hi], and compare the two resampled
//! quantiles under a relative tie band `tie_epsilon`. A resample is never
//! materialized: each sample is sorted once per call, a round tallies the
//! ranks of its drawn indices, and the quantile's two order statistics are
//! read off the tally's prefix sums (a counting select), which clears every
//! bin it reads. A sample of at most 127 values tallies in bytes, eight bins
//! to a 64-bit word; a larger one in 32-bit counts.
//!
//! A call reads what it fixes once, before the first round: each sample's
//! tally, ranks and sorted values, (double)(n - 1), the quantile range, the
//! tie band and the verdict's cut points. A round is then its 2n + 1 draws,
//! the quantile's position (once when both samples have the same n) and the
//! two selects, inline. Only the 32-bit select, for 128 values or more, is a
//! call.
//!
//! The aggregated score
//!
//!     score = (#a-wins - #b-wins) / rounds  in [-1, 1]
//!
//! is thresholded at `decision_threshold`: only a near-unanimous win rate
//! counts as a significant difference; everything else is "equivalent".
//! Because the per-round verdicts are stochastic, borderline pairs flip
//! between outcomes across repetitions — exactly the behaviour the paper
//! exploits to derive relative scores (Sec. III, "Computing the relative
//! scores").
//!
//! score() runs every round. compare() settles: once the rounds left can no
//! longer move the net wins across either threshold, it stops tallying and
//! selecting, and only makes the draws those rounds would have made, in the
//! same order. Its verdict and the rng state after the call are those of the
//! thresholded score(), so the sort's later comparisons, which read the same
//! rng stream, see the same bits.

#include "core/comparison.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace relperf::core {

/// Tuning knobs of the bootstrap comparator. Defaults reproduce the paper's
/// qualitative behaviour at N = 30 and N = 500 (`integration.Table1.*`,
/// `integration.Fig1b.*`).
struct BootstrapComparatorConfig {
    std::size_t rounds = 100;        ///< Bootstrap rounds per comparison,
                                     ///< at most INT64_MAX / 2.
    double quantile_lo = 0.35;       ///< Lower bound of the random quantile.
    double quantile_hi = 0.65;       ///< Upper bound of the random quantile.
    double tie_epsilon = 0.02;       ///< Relative tie band per round.
    double decision_threshold = 0.9; ///< |score| needed to call a winner.

    /// Throws InvalidArgument when out of range.
    void validate() const;
};

/// One sample prepared for counting selection: sorted once per call, after
/// which a round's resample is just a histogram over ranks. The histogram
/// lives in one of two tallies, chosen from the sample's size n:
/// - n <= 127: `byte_counts`, which the select reads a 64-bit word at a
///   time. No count or prefix sum of n draws can reach 128, so the top bit
///   of every byte stays clear for the select's borrow test.
/// - n >= 128: `counts`, which can hold any count of n draws.
/// Each call zeroes the tally in use once, after the sort, and empties the
/// other; each round's select leaves the tally in use zero again.
struct RankedSample {
    std::vector<double> sorted;        ///< The sample in ascending order.
    std::vector<std::uint32_t> rank;   ///< rank[j]: position of value j in `sorted`.
    /// The round's resample of a sample of at most 127 values, tallied by
    /// rank: one byte per bin, padded with zero bins to whole 64-bit words.
    std::vector<std::uint8_t> byte_counts;
    /// The round's resample of a sample of 128 values or more, tallied by
    /// rank: one 32-bit count per bin.
    std::vector<std::uint32_t> counts;
};

/// Scratch for BootstrapComparator's round loop. Reusing one scratch across
/// the many calls of a clustering keeps the hot path free of allocations;
/// nothing in it carries over from one call to the next.
struct BootstrapScratch {
    RankedSample a; ///< The first sample.
    RankedSample b; ///< The second sample.
};

class BootstrapComparator final : public Comparator {
public:
    explicit BootstrapComparator(BootstrapComparatorConfig config = {});

    /// score() thresholded at ±decision_threshold, with the same rng state
    /// after the call. Settles: the rounds after the verdict is fixed make
    /// their draws but are neither tallied nor selected. Uses a thread-local
    /// scratch — the comparator itself stays stateless and shareable across
    /// campaign worker threads.
    [[nodiscard]] Ordering compare(std::span<const double> a,
                                   std::span<const double> b,
                                   stats::Rng& rng) const override;

    /// The raw win-rate score in [-1, 1] (positive: a wins). Exposed for
    /// diagnostics and the ablation benches. Runs every round; never
    /// settles. Uses the same thread-local scratch as compare().
    [[nodiscard]] double score(std::span<const double> a, std::span<const double> b,
                               stats::Rng& rng) const;

    /// As above with caller-owned scratch (the allocation-free path the
    /// benches drive).
    [[nodiscard]] double score(std::span<const double> a, std::span<const double> b,
                               stats::Rng& rng, BootstrapScratch& scratch) const;

    [[nodiscard]] std::string name() const override { return "bootstrap"; }

    [[nodiscard]] const BootstrapComparatorConfig& config() const noexcept {
        return config_;
    }

private:
    /// The one round loop: returns #a-wins - #b-wins. With `settle`, it
    /// stops tallying once the verdict is fixed, makes the remaining rounds'
    /// draws, and returns the net so far, whose verdict is the final one.
    [[nodiscard]] std::int64_t net_wins(std::span<const double> a,
                                        std::span<const double> b,
                                        stats::Rng& rng, BootstrapScratch& scratch,
                                        bool settle) const;

    BootstrapComparatorConfig config_;
    /// Cut points of the verdict, derived from its floating-point predicate
    /// in the constructor: Better iff net >= better_from_, Worse iff
    /// net <= worse_upto_.
    std::int64_t better_from_ = 0;
    std::int64_t worse_upto_ = 0;
};

} // namespace relperf::core
