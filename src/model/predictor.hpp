#pragma once
//! \file predictor.hpp
//! Execution-less relative-performance prediction — the paper's Sec. V
//! outlook made concrete: train on the measured subset (clusters as ground
//! truth), predict the performance class of variants that were never
//! executed.
//!
//! The predictor regresses mean execution time on the variant features of
//! (chain, variant) over a backend universe (features.hpp) and converts
//! predicted times back into three-way comparisons and ranked classes with a
//! relative tie band (mirroring the measured comparator's equivalence
//! semantics). Plain (backend-inherit) assignments have the universe
//! {chain backend}, and a variant on any other backend is an
//! InvalidArgument.

#include "core/clustering.hpp"
#include "core/measurement.hpp"
#include "model/features.hpp"
#include "model/ridge.hpp"
#include "workloads/chain.hpp"

namespace relperf::model {

/// Configuration of the predictor.
struct PredictorConfig {
    double ridge_lambda = 1e-3; ///< L2 penalty (standardized feature space).
    double tie_epsilon = 0.02;  ///< Relative band for predicted equivalence.
};

class PerformancePredictor {
public:
    explicit PerformancePredictor(PredictorConfig config = {});

    /// Trains on measured variants: targets are the sample means of each
    /// algorithm's distribution. The backend universe is
    /// resolved_backends(chain, variants) and is stored, so later
    /// predictions can only name backends the model has seen — unknown ones
    /// throw.
    void fit(const workloads::TaskChain& chain,
             const std::vector<workloads::VariantAssignment>& variants,
             const core::MeasurementSet& measurements);

    /// As above with an explicit backend universe — for callers that will
    /// predict variants whose backends the training subset may not cover
    /// (e.g. subset search over a configured axis). Every training variant's
    /// resolved backend must be in `backend_universe`.
    void fit(const workloads::TaskChain& chain,
             const std::vector<workloads::VariantAssignment>& variants,
             const core::MeasurementSet& measurements,
             std::vector<std::string> backend_universe);

    /// Predicted mean execution time of an (unseen) variant.
    [[nodiscard]] double predict_seconds(const workloads::TaskChain& chain,
                                         const workloads::VariantAssignment& variant) const;

    /// Predicted three-way comparison (Better = `a` faster), using the tie
    /// band on predicted times.
    [[nodiscard]] core::Ordering compare(const workloads::TaskChain& chain,
                                         const workloads::VariantAssignment& a,
                                         const workloads::VariantAssignment& b) const;

    /// Predicted ranked sequence (performance classes) over a set of
    /// variants, via the paper's three-way sort driven by predicted
    /// comparisons.
    [[nodiscard]] core::RankedSequence rank(
        const workloads::TaskChain& chain,
        const std::vector<workloads::VariantAssignment>& variants) const;

    [[nodiscard]] bool is_fitted() const noexcept { return regressor_.is_fitted(); }
    /// The stored backend universe (empty before the first fit).
    [[nodiscard]] const std::vector<std::string>& backend_universe() const noexcept {
        return backend_universe_;
    }
    [[nodiscard]] const RidgeRegressor& regressor() const noexcept {
        return regressor_;
    }

private:
    PredictorConfig config_;
    RidgeRegressor regressor_;
    std::vector<std::string> backend_universe_;
};

/// Goodness of the predicted ordering against measured data.
struct PredictionEval {
    double kendall_tau = 0.0;          ///< Predicted vs measured mean times.
    double spearman_rho = 0.0;
    double pairwise_disagreement = 0.0;///< Fraction of flipped strict pairs.
    double mean_abs_rel_error = 0.0;   ///< |pred - meas| / meas, averaged.
    double rank_agreement = 0.0;       ///< Fraction with predicted class ==
                                       ///< measured final class.
};

/// Evaluates a fitted predictor on (typically held-out) measured variants
/// whose measured clustering is available.
[[nodiscard]] PredictionEval evaluate_predictor(
    const PerformancePredictor& predictor, const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants,
    const core::MeasurementSet& measurements, const core::Clustering& clustering);

} // namespace relperf::model
