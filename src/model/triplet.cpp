#include "model/triplet.hpp"

#include "support/error.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace relperf::model {

std::vector<Triplet> sample_triplets(const core::Clustering& clustering,
                                     std::size_t count, stats::Rng& rng) {
    RELPERF_REQUIRE(count > 0, "sample_triplets: count must be positive");

    // Group algorithms by final class.
    const std::size_t p = clustering.final_assignment.size();
    RELPERF_REQUIRE(p >= 3, "sample_triplets: need at least three algorithms");
    int max_rank = 0;
    for (const core::FinalAssignment& fin : clustering.final_assignment) {
        max_rank = std::max(max_rank, fin.rank);
    }
    std::vector<std::vector<std::size_t>> by_rank(
        static_cast<std::size_t>(max_rank) + 1);
    for (const core::FinalAssignment& fin : clustering.final_assignment) {
        by_rank[static_cast<std::size_t>(fin.rank)].push_back(fin.alg);
    }

    // Anchor classes: >= 2 members AND at least one strictly worse algorithm.
    std::vector<int> anchor_ranks;
    for (int rank = 1; rank <= max_rank; ++rank) {
        if (by_rank[static_cast<std::size_t>(rank)].size() < 2) continue;
        std::size_t worse = 0;
        for (int r = rank + 1; r <= max_rank; ++r) {
            worse += by_rank[static_cast<std::size_t>(r)].size();
        }
        if (worse > 0) anchor_ranks.push_back(rank);
    }
    RELPERF_REQUIRE(!anchor_ranks.empty(),
                    "sample_triplets: no class has both a positive peer and a "
                    "worse negative");

    std::vector<Triplet> out;
    out.reserve(count);
    while (out.size() < count) {
        const int rank = anchor_ranks[static_cast<std::size_t>(
            rng.uniform_index(anchor_ranks.size()))];
        const std::vector<std::size_t>& peers =
            by_rank[static_cast<std::size_t>(rank)];

        Triplet t;
        t.anchor = peers[static_cast<std::size_t>(rng.uniform_index(peers.size()))];
        do {
            t.positive =
                peers[static_cast<std::size_t>(rng.uniform_index(peers.size()))];
        } while (t.positive == t.anchor);

        // Negative: uniform over all strictly worse algorithms.
        std::vector<std::size_t> worse;
        for (int r = rank + 1; r <= max_rank; ++r) {
            const auto& members = by_rank[static_cast<std::size_t>(r)];
            worse.insert(worse.end(), members.begin(), members.end());
        }
        t.negative = worse[static_cast<std::size_t>(rng.uniform_index(worse.size()))];
        out.push_back(t);
    }
    return out;
}

void TripletScorerConfig::validate() const {
    RELPERF_REQUIRE(margin > 0.0, "TripletScorer: margin must be positive");
    RELPERF_REQUIRE(tie_margin >= 0.0, "TripletScorer: tie_margin must be >= 0");
    RELPERF_REQUIRE(learning_rate > 0.0, "TripletScorer: learning rate must be positive");
    RELPERF_REQUIRE(epochs > 0, "TripletScorer: epochs must be positive");
    RELPERF_REQUIRE(l2 >= 0.0, "TripletScorer: l2 must be >= 0");
}

TripletScorer::TripletScorer(TripletScorerConfig config) : config_(config) {
    config_.validate();
}

void TripletScorer::fit(const std::vector<std::vector<double>>& rows,
                        const std::vector<Triplet>& triplets) {
    RELPERF_REQUIRE(!rows.empty(), "TripletScorer: no feature rows");
    RELPERF_REQUIRE(!triplets.empty(), "TripletScorer: no triplets");
    const std::size_t p = rows.front().size();
    for (const auto& row : rows) {
        RELPERF_REQUIRE(row.size() == p, "TripletScorer: ragged feature rows");
    }
    for (const Triplet& t : triplets) {
        RELPERF_REQUIRE(t.anchor < rows.size() && t.positive < rows.size() &&
                            t.negative < rows.size(),
                        "TripletScorer: triplet index out of range");
    }

    // Standardize features.
    const std::size_t n = rows.size();
    feature_mean_.assign(p, 0.0);
    feature_scale_.assign(p, 1.0);
    for (std::size_t j = 0; j < p; ++j) {
        double sum = 0.0;
        for (const auto& row : rows) sum += row[j];
        feature_mean_[j] = sum / static_cast<double>(n);
        double ssq = 0.0;
        for (const auto& row : rows) {
            const double d = row[j] - feature_mean_[j];
            ssq += d * d;
        }
        const double sd = std::sqrt(ssq / static_cast<double>(n));
        feature_scale_[j] = sd > 0.0 ? sd : 1.0;
    }
    std::vector<std::vector<double>> z(n, std::vector<double>(p));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
            z[i][j] = (rows[i][j] - feature_mean_[j]) / feature_scale_[j];
        }
    }

    weights_.assign(p, 0.0);
    fitted_ = true; // score() usable inside the loop

    const auto raw_score = [&](std::size_t i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < p; ++j) acc += weights_[j] * z[i][j];
        return acc;
    };

    stats::Rng rng(config_.seed);
    std::vector<std::size_t> order(triplets.size());
    std::iota(order.begin(), order.end(), std::size_t{0});

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        rng.shuffle(order);
        // Simple 1/sqrt decay keeps late epochs stable.
        const double lr =
            config_.learning_rate / std::sqrt(1.0 + static_cast<double>(epoch));
        for (const std::size_t idx : order) {
            const Triplet& t = triplets[idx];
            const double sa = raw_score(t.anchor);
            const double sp = raw_score(t.positive);
            const double sn = raw_score(t.negative);

            // Rank hinge: want sn - sa >= margin.
            if (config_.margin - (sn - sa) > 0.0) {
                // d/dw [-(sn - sa)] = z[anchor] - z[negative].
                for (std::size_t j = 0; j < p; ++j) {
                    weights_[j] -= lr * (z[t.anchor][j] - z[t.negative][j]);
                }
            }
            // Tie hinge: want |sa - sp| <= tie_margin.
            const double gap = sa - sp;
            if (std::fabs(gap) - config_.tie_margin > 0.0) {
                const double sign = gap > 0.0 ? 1.0 : -1.0;
                for (std::size_t j = 0; j < p; ++j) {
                    weights_[j] -= lr * sign * (z[t.anchor][j] - z[t.positive][j]);
                }
            }
            // Weight decay.
            if (config_.l2 > 0.0) {
                for (double& w : weights_) w *= 1.0 - lr * config_.l2;
            }
        }
    }
}

double TripletScorer::score(std::span<const double> row) const {
    RELPERF_REQUIRE(fitted_, "TripletScorer: score before fit");
    RELPERF_REQUIRE(row.size() == weights_.size(),
                    "TripletScorer: feature dimension mismatch");
    double acc = 0.0;
    for (std::size_t j = 0; j < row.size(); ++j) {
        acc += weights_[j] * (row[j] - feature_mean_[j]) / feature_scale_[j];
    }
    return acc;
}

TripletScorer fit_triplet_scorer(
    const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants,
    const core::Clustering& clustering, std::size_t triplet_count,
    stats::Rng& rng, TripletScorerConfig config) {
    RELPERF_REQUIRE(variants.size() == clustering.final_assignment.size(),
                    "fit_triplet_scorer: variants/clustering mismatch");
    const std::vector<std::string> universe = resolved_backends(chain, variants);
    std::vector<std::vector<double>> rows;
    rows.reserve(variants.size());
    for (const auto& variant : variants) {
        rows.push_back(extract_variant_features(chain, variant, universe).values);
    }
    const std::vector<Triplet> triplets =
        sample_triplets(clustering, triplet_count, rng);
    TripletScorer scorer(config);
    scorer.fit(rows, triplets);
    return scorer;
}

} // namespace relperf::model
