#include "stats/ranking.hpp"

#include "stats/descriptive.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace relperf::stats {

namespace {

void check_paired(std::span<const double> a, std::span<const double> b) {
    RELPERF_REQUIRE(a.size() == b.size(), "ranking: size mismatch");
    RELPERF_REQUIRE(a.size() >= 2, "ranking: need at least two elements");
}

} // namespace

std::vector<double> midrank(std::span<const double> values) {
    const std::size_t n = values.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return values[x] < values[y]; });

    std::vector<double> ranks(n);
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j < n && values[order[j]] == values[order[i]]) ++j;
        const double rank = (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
        for (std::size_t k = i; k < j; ++k) ranks[order[k]] = rank;
        i = j;
    }
    return ranks;
}

double kendall_tau_b(std::span<const double> a, std::span<const double> b) {
    check_paired(a, b);
    const std::size_t n = a.size();
    double concordant = 0.0;
    double discordant = 0.0;
    double ties_a = 0.0; // tied in a only
    double ties_b = 0.0; // tied in b only
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const double da = a[i] - a[j];
            const double db = b[i] - b[j];
            if (da == 0.0 && db == 0.0) continue; // tied in both: excluded
            if (da == 0.0) {
                ties_a += 1.0;
            } else if (db == 0.0) {
                ties_b += 1.0;
            } else if ((da > 0.0) == (db > 0.0)) {
                concordant += 1.0;
            } else {
                discordant += 1.0;
            }
        }
    }
    const double denom = std::sqrt((concordant + discordant + ties_a) *
                                   (concordant + discordant + ties_b));
    if (denom == 0.0) return 0.0; // one variable constant
    return (concordant - discordant) / denom;
}

double spearman_rho(std::span<const double> a, std::span<const double> b) {
    check_paired(a, b);
    const std::vector<double> ra = midrank(a);
    const std::vector<double> rb = midrank(b);
    const double ma = mean(ra);
    const double mb = mean(rb);
    double cov = 0.0;
    double va = 0.0;
    double vb = 0.0;
    for (std::size_t i = 0; i < ra.size(); ++i) {
        const double da = ra[i] - ma;
        const double db = rb[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    const double denom = std::sqrt(va * vb);
    if (denom == 0.0) return 0.0;
    return cov / denom;
}

double pairwise_disagreement(std::span<const double> a, std::span<const double> b) {
    check_paired(a, b);
    const std::size_t n = a.size();
    double ordered = 0.0;
    double discordant = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const double da = a[i] - a[j];
            if (da == 0.0) continue;
            ordered += 1.0;
            const double db = b[i] - b[j];
            if (db == 0.0 || (da > 0.0) != (db > 0.0)) discordant += 1.0;
        }
    }
    return ordered == 0.0 ? 0.0 : discordant / ordered;
}

double adjusted_rand_index(std::span<const int> labels_a,
                           std::span<const int> labels_b) {
    RELPERF_REQUIRE(labels_a.size() == labels_b.size(),
                    "adjusted_rand_index: size mismatch");
    RELPERF_REQUIRE(labels_a.size() >= 2,
                    "adjusted_rand_index: need at least two elements");
    const std::size_t n = labels_a.size();

    // Pair counts: a = same/same, b = same in A only, c = same in B only.
    double ss = 0.0; // same in both
    double sa = 0.0; // same in A (total)
    double sb = 0.0; // same in B (total)
    double pairs = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const bool same_a = labels_a[i] == labels_a[j];
            const bool same_b = labels_b[i] == labels_b[j];
            if (same_a && same_b) ss += 1.0;
            if (same_a) sa += 1.0;
            if (same_b) sb += 1.0;
            pairs += 1.0;
        }
    }
    const double expected = sa * sb / pairs;
    const double max_index = 0.5 * (sa + sb);
    if (max_index == expected) {
        // Both partitions are all-singletons or all-one-cluster: identical
        // structure => perfect agreement.
        return 1.0;
    }
    return (ss - expected) / (max_index - expected);
}

} // namespace relperf::stats
