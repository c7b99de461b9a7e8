#pragma once
//! \file triplet.hpp
//! Triplet-based ranking — the paper's proposed training regime (Sec. I):
//! "performance models for automatic algorithm selection can obtain better
//! accuracy when trained with a particular loss function, known as Triplet
//! loss, where both positive (fast algorithm) and negative (worst algorithm)
//! example are used to train the model; for such a training, the algorithms
//! clustered into different performance classes would be required."
//!
//! The clustering provides exactly that supervision: an anchor and a
//! *positive* share a performance class, a *negative* comes from a strictly
//! worse class. The TripletScorer learns a linear score s(x) = w.x (lower =
//! faster) from class labels only — no absolute execution times — by
//! minimizing hinge losses
//!
//!   rank loss: max(0, margin - (s(negative) - s(anchor)))
//!   tie  loss: max(0, |s(anchor) - s(positive)| - tie_margin)
//!
//! with SGD over standardized features.

#include "core/clustering.hpp"
#include "model/features.hpp"
#include "stats/rng.hpp"
#include "workloads/chain.hpp"

#include <vector>

namespace relperf::model {

/// Index triple into an algorithm set.
struct Triplet {
    std::size_t anchor = 0;
    std::size_t positive = 0; ///< Same final class as the anchor.
    std::size_t negative = 0; ///< Strictly worse final class.
};

/// Samples `count` triplets from a clustering's final assignment. Requires at
/// least one class with >= 2 members and one strictly worse algorithm;
/// throws InvalidArgument otherwise. Deterministic in the Rng.
[[nodiscard]] std::vector<Triplet> sample_triplets(const core::Clustering& clustering,
                                                   std::size_t count,
                                                   stats::Rng& rng);

struct TripletScorerConfig {
    double margin = 1.0;        ///< Required score gap anchor -> negative.
    double tie_margin = 0.25;   ///< Allowed score gap anchor <-> positive.
    double learning_rate = 0.05;
    std::size_t epochs = 300;
    double l2 = 1e-4;           ///< Weight decay.
    std::uint64_t seed = 0x7122; ///< SGD shuffling seed.

    void validate() const;
};

/// Linear ranking model trained from triplets.
class TripletScorer {
public:
    explicit TripletScorer(TripletScorerConfig config = {});

    /// Fits on feature rows (one per algorithm) and triplets over them.
    void fit(const std::vector<std::vector<double>>& rows,
             const std::vector<Triplet>& triplets);

    /// Relative score (lower = predicted faster). Comparable only within one
    /// fitted model.
    [[nodiscard]] double score(std::span<const double> row) const;

    [[nodiscard]] bool is_fitted() const noexcept { return fitted_; }

private:
    TripletScorerConfig config_;
    std::vector<double> weights_;
    std::vector<double> feature_mean_;
    std::vector<double> feature_scale_;
    bool fitted_ = false;
};

/// Convenience: fit a scorer for a chain's variants directly from a
/// measured clustering (class labels only). The rows are the variant
/// features over resolved_backends(chain, variants).
[[nodiscard]] TripletScorer fit_triplet_scorer(
    const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants,
    const core::Clustering& clustering, std::size_t triplet_count,
    stats::Rng& rng, TripletScorerConfig config = {});

} // namespace relperf::model
