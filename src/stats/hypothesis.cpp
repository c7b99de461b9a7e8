#include "stats/hypothesis.hpp"

#include "stats/descriptive.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

namespace relperf::stats {

double normal_survival(double z) noexcept {
    return 0.5 * std::erfc(z / std::sqrt(2.0));
}

double kolmogorov_survival(double lambda) noexcept {
    if (lambda <= 0.0) return 1.0;
    double sum = 0.0;
    double sign = 1.0;
    for (int k = 1; k <= 100; ++k) {
        const double term = std::exp(-2.0 * k * k * lambda * lambda);
        sum += sign * term;
        if (term < 1e-12) break;
        sign = -sign;
    }
    return std::clamp(2.0 * sum, 0.0, 1.0);
}

namespace {

/// Midranks of the pooled sample plus the tie-group sizes.
struct RankInfo {
    std::vector<double> ranks_a; // midranks of sample a in the pooled order
    double tie_term = 0.0;       // sum over tie groups of (t^3 - t)
};

RankInfo midranks(std::span<const double> a, std::span<const double> b) {
    struct Tagged {
        double value;
        bool from_a;
    };
    std::vector<Tagged> pooled;
    pooled.reserve(a.size() + b.size());
    for (const double x : a) pooled.push_back({x, true});
    for (const double x : b) pooled.push_back({x, false});
    std::sort(pooled.begin(), pooled.end(),
              [](const Tagged& l, const Tagged& r) { return l.value < r.value; });

    RankInfo info;
    info.ranks_a.reserve(a.size());
    std::size_t i = 0;
    while (i < pooled.size()) {
        std::size_t j = i;
        while (j < pooled.size() && pooled[j].value == pooled[i].value) ++j;
        const double t = static_cast<double>(j - i);
        const double midrank = (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
        if (t > 1.0) info.tie_term += t * t * t - t;
        for (std::size_t k = i; k < j; ++k) {
            if (pooled[k].from_a) info.ranks_a.push_back(midrank);
        }
        i = j;
    }
    return info;
}

} // namespace

TestResult mann_whitney_u(std::span<const double> a, std::span<const double> b) {
    RELPERF_REQUIRE(!a.empty() && !b.empty(), "mann_whitney_u: empty sample");
    const double n = static_cast<double>(a.size());
    const double m = static_cast<double>(b.size());

    const RankInfo info = midranks(a, b);
    double rank_sum_a = 0.0;
    for (const double r : info.ranks_a) rank_sum_a += r;

    const double u_a = rank_sum_a - n * (n + 1.0) / 2.0;
    const double mu = n * m / 2.0;
    const double total = n + m;
    const double tie_correction = info.tie_term / (total * (total - 1.0));
    const double sigma2 = n * m / 12.0 * ((total + 1.0) - tie_correction);

    TestResult res;
    res.statistic = u_a;
    if (sigma2 <= 0.0) {
        // All pooled values identical: no evidence of any difference.
        res.z = 0.0;
        res.p_value = 1.0;
        return res;
    }
    const double sigma = std::sqrt(sigma2);
    // Continuity correction towards the null.
    const double delta = u_a - mu;
    const double cc = delta > 0.0 ? -0.5 : (delta < 0.0 ? 0.5 : 0.0);
    res.z = (delta + cc) / sigma;
    res.p_value = std::clamp(2.0 * normal_survival(std::fabs(res.z)), 0.0, 1.0);
    return res;
}

TestResult kolmogorov_smirnov(std::span<const double> a, std::span<const double> b) {
    RELPERF_REQUIRE(!a.empty() && !b.empty(), "kolmogorov_smirnov: empty sample");
    const std::vector<double> sa = sorted_copy(a);
    const std::vector<double> sb = sorted_copy(b);
    const double n = static_cast<double>(sa.size());
    const double m = static_cast<double>(sb.size());

    double d = 0.0;
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < sa.size() && ib < sb.size()) {
        const double x = std::min(sa[ia], sb[ib]);
        while (ia < sa.size() && sa[ia] <= x) ++ia;
        while (ib < sb.size() && sb[ib] <= x) ++ib;
        const double fa = static_cast<double>(ia) / n;
        const double fb = static_cast<double>(ib) / m;
        d = std::max(d, std::fabs(fa - fb));
    }

    TestResult res;
    res.statistic = d;
    const double en = std::sqrt(n * m / (n + m));
    // Asymptotic p with the standard small-sample adjustment.
    res.p_value = kolmogorov_survival((en + 0.12 + 0.11 / en) * d);
    return res;
}

double cliffs_delta(std::span<const double> a, std::span<const double> b) {
    RELPERF_REQUIRE(!a.empty() && !b.empty(), "cliffs_delta: empty sample");
    // O((n+m) log) via sorted b and binary searches.
    const std::vector<double> sb = sorted_copy(b);
    double greater = 0.0; // pairs with a_i < b_j
    double less = 0.0;    // pairs with a_i > b_j
    for (const double x : a) {
        const auto lo = std::lower_bound(sb.begin(), sb.end(), x);
        const auto hi = std::upper_bound(sb.begin(), sb.end(), x);
        greater += static_cast<double>(sb.end() - hi);
        less += static_cast<double>(lo - sb.begin());
    }
    const double pairs = static_cast<double>(a.size()) * static_cast<double>(b.size());
    return (greater - less) / pairs;
}

} // namespace relperf::stats
