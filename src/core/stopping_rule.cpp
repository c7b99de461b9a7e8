#include "core/stopping_rule.hpp"

#include "stats/descriptive.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace relperf::core {

namespace {

/// Does algorithm `alg`'s final class `rank` beat its runner-up class by a
/// margin whose one-sided lower bound at critical value `z` clears zero?
/// Never when the repetition count is unknown.
bool margin_is_significant(const Clustering& clustering, std::size_t alg,
                           int rank, double z) {
    const std::size_t rep = clustering.repetitions;
    if (rep == 0) return false;
    // Relative scores are per-class win proportions over the clusterer's
    // Rep repeated stochastic sorts (each repetition assigns the algorithm
    // to exactly one class, so the scores are multinomial proportions).
    // Margin of the winning class over the runner-up:
    //   Var(p1_hat - p2_hat) = (p1(1-p1) + p2(1-p2) + 2 p1 p2) / Rep
    // (the +2 p1 p2 term is -2 Cov for multinomial counts).
    const double p1 = clustering.score_of(alg, rank);
    double p2 = 0.0;
    for (std::size_t r = 1; r <= clustering.clusters.size(); ++r) {
        if (static_cast<int>(r) == rank) continue;
        p2 = std::max(p2, clustering.score_of(alg, static_cast<int>(r)));
    }
    const double margin = p1 - p2;
    const double se =
        std::sqrt((p1 * (1.0 - p1) + p2 * (1.0 - p2) + 2.0 * p1 * p2) /
                  static_cast<double>(rep));
    return margin - z * se > 0.0;
}

} // namespace

StoppingRule::StoppingRule(std::size_t stability_rounds, double confidence)
    : stability_rounds_(stability_rounds) {
    RELPERF_REQUIRE(stability_rounds > 0,
                    "StoppingRule: stability_rounds must be > 0");
    RELPERF_REQUIRE(confidence == 0.0 ||
                        (confidence > 0.5 && confidence < 1.0),
                    "StoppingRule: confidence must be 0 (the stability "
                    "rule) or in (0.5, 1)");
    if (confidence != 0.0) z_ = stats::normal_quantile(confidence);
}

const char* StoppingRule::name() const noexcept {
    return z_ == 0.0 ? "stability" : "confidence";
}

void StoppingRule::observe(const Clustering& clustering,
                           const std::vector<bool>& stopped) {
    const std::size_t n = clustering.final_assignment.size();
    RELPERF_REQUIRE(stopped.size() == n,
                    "StoppingRule: stopped/clustering size mismatch");
    if (repeats_.empty()) {
        repeats_.assign(n, 0);
        stop_.assign(n, false);
    }
    RELPERF_REQUIRE(repeats_.size() == n,
                    "StoppingRule: algorithm count changed mid-run");

    std::vector<int> rank(n, 0);
    for (std::size_t i = 0; i < n; ++i) rank[i] = clustering.final_rank(i);

    // The first clustering only seeds previous_rank_: no class has repeated
    // yet, so nothing stops on it.
    if (!previous_rank_.empty()) {
        for (std::size_t i = 0; i < n; ++i) {
            if (stopped[i]) continue;
            repeats_[i] = rank[i] == previous_rank_[i] ? repeats_[i] + 1 : 0;
            stop_[i] = z_ == 0.0 ? repeats_[i] >= stability_rounds_
                                 : repeats_[i] >= 1 &&
                                       margin_is_significant(clustering, i,
                                                             rank[i], z_);
        }
    }
    previous_rank_ = std::move(rank);
}

bool StoppingRule::should_stop(std::size_t alg) const {
    RELPERF_REQUIRE(alg < stop_.size(), "StoppingRule: should_stop before observe");
    return stop_[alg];
}

} // namespace relperf::core
