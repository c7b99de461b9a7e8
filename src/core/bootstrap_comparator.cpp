#include "core/bootstrap_comparator.hpp"

#include "obs/metrics.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>

namespace relperf::core {

namespace {

/// The one scratch of a thread, shared by score() and compare(): the
/// clusterer calls compare() on one comparator from several threads at once.
BootstrapScratch& thread_scratch() {
    static thread_local BootstrapScratch scratch;
    return scratch;
}

/// Sorts `sample` into `out.sorted`, records every raw index's position in
/// `out.rank`, and leaves `out.counts` as n zeros, the tally of an empty
/// resample. Tied values may take their positions in any order: the sorted
/// values, and so every order statistic, are the same either way.
void rank_sample(std::span<const double> sample, RankedSample& out) {
    RELPERF_REQUIRE(sample.size() <= std::numeric_limits<std::uint32_t>::max(),
                    "BootstrapComparator: sample too large to rank");
    const auto n = static_cast<std::uint32_t>(sample.size());
    // Until the ranks are recorded, `counts` holds the argsort order.
    std::vector<std::uint32_t>& order = out.counts;
    order.resize(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t i, std::uint32_t j) {
        return sample[i] < sample[j];
    });
    out.sorted.resize(n);
    out.rank.resize(n);
    for (std::uint32_t k = 0; k < n; ++k) {
        out.sorted[k] = sample[order[k]];
        out.rank[order[k]] = k;
    }
    std::fill(order.begin(), order.end(), 0u);
}

/// Moves `rng` past `rounds` rounds exactly as the round loop draws them —
/// per round n_a indices of a, n_b of b, then the quantile — without
/// tallying or selecting anything.
void skip_rounds(std::int64_t rounds, std::size_t n_a, std::size_t n_b,
                 stats::Rng& rng) {
    for (std::int64_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < n_a; ++i) (void)rng.uniform_index(n_a);
        for (std::size_t i = 0; i < n_b; ++i) (void)rng.uniform_index(n_b);
        (void)rng.uniform(); // the quantile: one draw, as uniform(lo, hi)
    }
}

/// Bins the select reads between two looks at its prefix count.
constexpr std::size_t kBlock = 16;

/// The q-quantile of the tallied resample, as the same double
/// stats::quantile_partial returns for the materialized resample: the lo-th
/// and (lo+1)-th order statistics come from the prefix sums of the tally,
/// and the interpolation is the same expression. Leaves `s.counts` all zero
/// for the next round's tally.
double select_quantile(RankedSample& s, double q) {
    const std::size_t n = s.sorted.size();
    std::uint32_t* const counts = s.counts.data();
    if (n == 1) {
        counts[0] = 0;
        return s.sorted[0];
    }
    const double h = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = h - static_cast<double>(lo);
    // `upto` counts the resampled values of rank below `begin`. The k-th
    // order statistic sits in the first bin where `upto` passes k, and
    // `upto` never decreases, so its rank is the number of bins at which
    // `upto` is still <= k. Whole blocks that leave it <= lo count fully.
    std::size_t upto = 0;
    std::size_t begin = 0;
    while (begin + kBlock <= n) {
        std::uint32_t sum = 0; // at most n, which rank_sample caps
        for (std::size_t j = begin; j < begin + kBlock; ++j) sum += counts[j];
        if (upto + sum > lo) break;
        std::fill_n(counts + begin, kBlock, 0u);
        upto += sum;
        begin += kBlock;
    }
    // From there count without branching on the data, a block at a time,
    // through the block in which `upto` passes hi. It reaches n > hi at the
    // last bin, so the ranks stay below n.
    std::size_t k_lo = begin;
    std::size_t k_hi = begin;
    while (upto <= hi) {
        const std::size_t end = std::min(begin + kBlock, n);
        for (std::size_t j = begin; j < end; ++j) {
            upto += counts[j];
            counts[j] = 0;
            k_lo += upto <= lo;
            k_hi += upto <= hi;
        }
        begin = end;
    }
    std::fill(counts + begin, counts + n, 0u);
    const double v_lo = s.sorted[k_lo];
    const double v_hi = s.sorted[k_hi];
    return v_lo + frac * (v_hi - v_lo);
}

/// The least x in [lo, hi) for which `holds(x)` is true, or hi if none is;
/// `holds` must be false and then true as x grows.
template <class Pred>
std::int64_t first_true(std::int64_t lo, std::int64_t hi, Pred holds) {
    while (lo < hi) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        if (holds(mid)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    return lo;
}

} // namespace

void BootstrapComparatorConfig::validate() const {
    RELPERF_REQUIRE(rounds > 0, "BootstrapComparator: rounds must be positive");
    // The settle check adds and subtracts round counts as signed integers.
    RELPERF_REQUIRE(rounds <= static_cast<std::size_t>(
                                  std::numeric_limits<std::int64_t>::max() / 2),
                    "BootstrapComparator: rounds must be at most INT64_MAX / 2");
    RELPERF_REQUIRE(0.0 <= quantile_lo && quantile_lo <= quantile_hi && quantile_hi <= 1.0,
                    "BootstrapComparator: need 0 <= quantile_lo <= quantile_hi <= 1");
    RELPERF_REQUIRE(tie_epsilon >= 0.0, "BootstrapComparator: tie_epsilon must be >= 0");
    RELPERF_REQUIRE(decision_threshold > 0.0 && decision_threshold <= 1.0,
                    "BootstrapComparator: decision_threshold must be in (0, 1]");
}

BootstrapComparator::BootstrapComparator(BootstrapComparatorConfig config)
    : config_(config) {
    config_.validate();
    // The verdict thresholds score = net / rounds: Better above t, Worse
    // below -t. Both tests are monotone in the net win count, so each
    // verdict holds on one interval of [-rounds, rounds], whose ends are
    // found by bisection on the floating-point tests themselves.
    const auto rounds = static_cast<std::int64_t>(config_.rounds);
    const double t = config_.decision_threshold;
    const auto score_of = [rounds](std::int64_t net) {
        return static_cast<double>(net) / static_cast<double>(rounds);
    };
    better_from_ = first_true(-rounds, rounds + 1,
                              [&](std::int64_t net) { return score_of(net) > t; });
    worse_upto_ = first_true(-rounds, rounds + 1,
                             [&](std::int64_t net) { return !(score_of(net) < -t); }) -
                  1;
}

Ordering BootstrapComparator::verdict(std::int64_t net) const noexcept {
    if (net >= better_from_) return Ordering::Better;
    if (net <= worse_upto_) return Ordering::Worse;
    return Ordering::Equivalent;
}

std::int64_t BootstrapComparator::net_wins(std::span<const double> a,
                                           std::span<const double> b,
                                           stats::Rng& rng,
                                           BootstrapScratch& scratch,
                                           bool settle) const {
    RELPERF_REQUIRE(!a.empty() && !b.empty(), "BootstrapComparator: empty sample");

    // Counter only, no span: this loop sits inside the clusterer's sort
    // inner loop, where even an unarmed span's ctor/dtor pair would be noise.
    // Every round draws its resamples, settled or not.
    obs::metrics().bootstrap_resamples_total.inc(2 * config_.rounds);

    rank_sample(a, scratch.a);
    rank_sample(b, scratch.b);
    const std::size_t n_a = a.size();
    const std::size_t n_b = b.size();
    // Drawing from a local copy lets the compiler keep the generator state
    // in registers for the whole call instead of storing it back after
    // every draw.
    stats::Rng local = rng;
    const auto rounds = static_cast<std::int64_t>(config_.rounds);
    std::int64_t net = 0;
    for (std::int64_t r = 1; r <= rounds; ++r) {
        // Per round the rng yields a's indices, then b's, then the quantile.
        // Each drawn index is tallied at its rank.
        for (std::size_t i = 0; i < n_a; ++i) {
            ++scratch.a.counts[scratch.a.rank[local.uniform_index(n_a)]];
        }
        for (std::size_t i = 0; i < n_b; ++i) {
            ++scratch.b.counts[scratch.b.rank[local.uniform_index(n_b)]];
        }
        const double q = local.uniform(config_.quantile_lo, config_.quantile_hi);
        const double qa = select_quantile(scratch.a, q);
        const double qb = select_quantile(scratch.b, q);

        const double band =
            config_.tie_epsilon * std::min(std::fabs(qa), std::fabs(qb));
        const bool tie = std::fabs(qa - qb) <= band;
        net += !tie * (2 * (qa < qb) - 1); // lower is better; NaN counts for b
        // The final net lies in [net - left, net + left], and the verdict is
        // monotone in it: equal verdicts at both ends fix it.
        const std::int64_t left = rounds - r;
        if (settle && verdict(net - left) == verdict(net + left)) {
            skip_rounds(left, n_a, n_b, local);
            break;
        }
    }
    rng = local;
    return net;
}

double BootstrapComparator::score(std::span<const double> a, std::span<const double> b,
                                  stats::Rng& rng) const {
    return score(a, b, rng, thread_scratch());
}

double BootstrapComparator::score(std::span<const double> a, std::span<const double> b,
                                  stats::Rng& rng, BootstrapScratch& scratch) const {
    return static_cast<double>(net_wins(a, b, rng, scratch, /*settle=*/false)) /
           static_cast<double>(config_.rounds);
}

Ordering BootstrapComparator::compare(std::span<const double> a,
                                      std::span<const double> b,
                                      stats::Rng& rng) const {
    return verdict(net_wins(a, b, rng, thread_scratch(), /*settle=*/true));
}

} // namespace relperf::core
