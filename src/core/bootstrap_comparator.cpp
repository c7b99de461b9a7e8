#include "core/bootstrap_comparator.hpp"

#include "obs/metrics.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// Samples of up to this many values tally in bytes: no count or prefix sum
/// of their resamples reaches 128, so every byte's top bit stays clear.
constexpr std::size_t kMaxByteSample = 127;

/// Bins in one word of the byte tally.
constexpr std::size_t kWordBins = sizeof(std::uint64_t);

/// Every byte of a word set to 1, and every byte's top bit.
constexpr std::uint64_t kOnes = 0x0101010101010101;
constexpr std::uint64_t kHighs = 0x8080808080808080;

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "the byte tally's select orders a word's bins by byte order");

/// Sorts `sample` into `out.sorted`, records every raw index's position in
/// `out.rank`, and leaves the tally its size selects all zero (the byte
/// tally padded to whole words) and the other empty. Tied values may take
/// their positions in any order: the sorted values, and so every order
/// statistic, are the same either way.
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
    if (n <= kMaxByteSample) {
        out.byte_counts.assign((n + kWordBins - 1) / kWordBins * kWordBins, 0);
        order.clear();
    } else {
        std::fill(order.begin(), order.end(), 0u);
        out.byte_counts.clear();
    }
}

/// One ranked sample as the round loop reads it: everything that is fixed
/// from the sort to the last round, copied out of the scratch into a local.
/// A byte store may alias any object, so a value the loop read through the
/// scratch or the comparator would be loaded again after every tally.
struct Tally {
    std::size_t n;             ///< The caller's span size.
    double last;               ///< (double)(n - 1), the quantile's scale.
    const std::uint32_t* rank; ///< rank[j]: position of value j in `sorted`.
    const double* sorted;
    std::uint8_t* bytes;       ///< The byte tally, for n <= 127.
    std::size_t words;         ///< Its length in 64-bit words.
    std::uint32_t* counts;     ///< The 32-bit tally, for n >= 128.
};

/// The view of `s` after rank_sample, for a sample of `n` values. `n` is the
/// caller's span size: read from the vector, GCC 12 gives Lemire's 128-bit
/// product a high half it cannot prove zero, and every draw pays one more
/// multiply.
Tally tally_of(RankedSample& s, std::size_t n) {
    return {n,
            static_cast<double>(n - 1),
            s.rank.data(),
            s.sorted.data(),
            s.byte_counts.data(),
            s.byte_counts.size() / kWordBins,
            s.counts.data()};
}

/// Draws one resample of t's n values from `rng` and tallies each drawn
/// index at its rank, in the tally rank_sample chose.
inline void draw(const Tally& t, stats::Rng& rng) {
    const std::size_t n = t.n;
    if (n <= kMaxByteSample) {
        for (std::size_t i = 0; i < n; ++i) ++t.bytes[t.rank[rng.uniform_index(n)]];
    } else {
        for (std::size_t i = 0; i < n; ++i) ++t.counts[t.rank[rng.uniform_index(n)]];
    }
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

/// Where the q-quantile of n values sits, as stats::quantile_sorted places
/// it: between the lo-th and hi-th order statistics (0-based), at `frac`.
struct Position {
    std::size_t lo;
    std::size_t hi;
    double frac;
};

inline Position position_of(double q, const Tally& t) {
    const double h = q * t.last;
    // h lies in [0, n - 1] and n fits in 32 bits, so the signed conversion
    // gives the unsigned one's lo without its range branches.
    const auto lo = static_cast<std::int64_t>(h);
    return {static_cast<std::size_t>(lo),
            std::min(static_cast<std::size_t>(lo) + 1, t.n - 1),
            h - static_cast<double>(lo)};
}

/// The ranks of a tallied resample's lo-th and hi-th order statistics
/// (0-based, lo <= hi < n). The k-th order statistic sits in the first bin
/// whose prefix sum, the count of resampled values up to and including that
/// bin, passes k; prefix sums never decrease, so its rank is the number of
/// bins whose prefix sum is at most k. Both selects below return these
/// ranks and leave every bin of their tally zero for the next round.
struct OrderRanks {
    std::size_t lo;
    std::size_t hi;
};

/// The select on a byte tally, eight bins per word, with the same fixed
/// work for every word. Three shift-adds turn a word's bins into their
/// prefix sums within the word, and adding the running carry (the values in
/// earlier words) to every byte makes them the prefix sums of the tally.
/// They stay below 128, so no byte carries into the next, and byte lane i
/// of (k * kOnes | kHighs) - p keeps its top bit exactly when lane i of p is
/// at most k, without borrowing from its neighbour. The >> 7 moves each
/// such bit to its lane's bottom; over at most 16 words a lane counts to
/// 16, and the multiply by kOnes sums the eight lanes, a rank below n, into
/// the top byte.
inline OrderRanks select_bytes(std::uint8_t* bins, std::size_t words,
                               const Position& at) {
    const std::uint64_t lo_test = at.lo * kOnes | kHighs;
    const std::uint64_t hi_test = at.hi * kOnes | kHighs;
    std::uint64_t carry = 0; // the values in earlier words, in every byte
    std::uint64_t lanes_lo = 0;
    std::uint64_t lanes_hi = 0;
    for (std::size_t w = 0; w < words; ++w) {
        std::uint8_t* const word = bins + w * kWordBins;
        std::uint64_t p = 0;
        std::memcpy(&p, word, sizeof p);
        std::memset(word, 0, sizeof p);
        // The word's first bin is its lowest-addressed byte: the low byte on
        // a little-endian target, the high byte on a big-endian one. The
        // last bin's prefix is the word's own count of values.
        std::uint64_t own = 0;
        if constexpr (std::endian::native == std::endian::big) {
            p += p >> 8;
            p += p >> 16;
            p += p >> 32;
            own = p & 0xff;
        } else {
            p += p << 8;
            p += p << 16;
            p += p << 32;
            own = p >> 56;
        }
        p += carry;
        carry += own * kOnes;
        lanes_lo += ((lo_test - p) & kHighs) >> 7;
        lanes_hi += ((hi_test - p) & kHighs) >> 7;
    }
    return {static_cast<std::size_t>((lanes_lo * kOnes) >> 56),
            static_cast<std::size_t>((lanes_hi * kOnes) >> 56)};
}

/// Bins the 32-bit select reads between two looks at its prefix count.
constexpr std::size_t kBlock = 16;

/// The select on a 32-bit tally of n bins. Out of line: it serves only
/// samples of 128 values or more, whose draws dwarf a call.
[[gnu::noinline]] OrderRanks select_counts(std::uint32_t* counts, std::size_t n,
                                           std::size_t lo, std::size_t hi) {
    // `upto` counts the resampled values of rank below `begin`. Whole
    // blocks that leave it <= lo hold no bin past either order statistic,
    // so they count fully.
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
    OrderRanks ranks{begin, begin};
    while (upto <= hi) {
        const std::size_t end = std::min(begin + kBlock, n);
        for (std::size_t j = begin; j < end; ++j) {
            upto += counts[j];
            counts[j] = 0;
            ranks.lo += upto <= lo;
            ranks.hi += upto <= hi;
        }
        begin = end;
    }
    std::fill(counts + begin, counts + n, 0u);
    return ranks;
}

/// The quantile at `at` of t's tallied resample, as the same double
/// stats::quantile_sorted returns for the sorted materialized resample: the
/// lo-th and hi-th order statistics come from the tally in use, and the
/// interpolation is the same expression. Leaves that tally all zero for the
/// next round's resample. One value is its own quantile, +inf included.
inline double select_quantile(const Tally& t, const Position& at) {
    if (t.n == 1) { // one value always tallies in bytes
        t.bytes[0] = 0;
        return t.sorted[0];
    }
    const OrderRanks k = t.n <= kMaxByteSample
                             ? select_bytes(t.bytes, t.words, at)
                             : select_counts(t.counts, t.n, at.lo, at.hi);
    const double v_lo = t.sorted[k.lo];
    const double v_hi = t.sorted[k.hi];
    return v_lo + at.frac * (v_hi - v_lo);
}

/// compare()'s verdict for a net win count, given the cut points.
inline Ordering verdict_of(std::int64_t net, std::int64_t better_from,
                           std::int64_t worse_upto) {
    if (net >= better_from) return Ordering::Better;
    if (net <= worse_upto) return Ordering::Worse;
    return Ordering::Equivalent;
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
    // What the rounds read and the call fixes, in locals (see Tally).
    const Tally ta = tally_of(scratch.a, a.size());
    const Tally tb = tally_of(scratch.b, b.size());
    const bool same_n = ta.n == tb.n;
    const double q_lo = config_.quantile_lo;
    const double q_span = config_.quantile_hi - config_.quantile_lo;
    const double tie_epsilon = config_.tie_epsilon;
    const std::int64_t better_from = better_from_;
    const std::int64_t worse_upto = worse_upto_;
    const auto rounds = static_cast<std::int64_t>(config_.rounds);
    // Drawing from a local copy lets the compiler keep the generator state
    // in registers for the whole call instead of storing it back after
    // every draw.
    stats::Rng local = rng;
    std::int64_t net = 0;
    for (std::int64_t r = 1; r <= rounds; ++r) {
        // Per round the rng yields a's indices, then b's, then the quantile,
        // as uniform(quantile_lo, quantile_hi) computes it.
        draw(ta, local);
        draw(tb, local);
        const double q = q_lo + q_span * local.uniform();
        const Position at_a = position_of(q, ta);
        const Position at_b = same_n ? at_a : position_of(q, tb);
        const double qa = select_quantile(ta, at_a);
        const double qb = select_quantile(tb, at_b);

        const double band = tie_epsilon * std::min(std::fabs(qa), std::fabs(qb));
        const bool tie = std::fabs(qa - qb) <= band;
        net += !tie * (2 * (qa < qb) - 1); // lower is better; NaN counts for b
        // The final net lies in [net - left, net + left], and the verdict is
        // monotone in it: equal verdicts at both ends fix it.
        const std::int64_t left = rounds - r;
        if (settle && verdict_of(net - left, better_from, worse_upto) ==
                          verdict_of(net + left, better_from, worse_upto)) {
            skip_rounds(left, ta.n, tb.n, local);
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
    return verdict_of(net_wins(a, b, rng, thread_scratch(), /*settle=*/true),
                      better_from_, worse_upto_);
}

} // namespace relperf::core
