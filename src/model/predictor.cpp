#include "model/predictor.hpp"

#include "stats/descriptive.hpp"
#include "stats/ranking.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cmath>

namespace relperf::model {

PerformancePredictor::PerformancePredictor(PredictorConfig config)
    : config_(config) {
    RELPERF_REQUIRE(config_.ridge_lambda >= 0.0,
                    "PerformancePredictor: lambda must be >= 0");
    RELPERF_REQUIRE(config_.tie_epsilon >= 0.0,
                    "PerformancePredictor: tie_epsilon must be >= 0");
}

void PerformancePredictor::fit(
    const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants,
    const core::MeasurementSet& measurements) {
    fit(chain, variants, measurements, resolved_backends(chain, variants));
}

void PerformancePredictor::fit(
    const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants,
    const core::MeasurementSet& measurements,
    std::vector<std::string> backend_universe) {
    RELPERF_REQUIRE(variants.size() == measurements.size(),
                    "PerformancePredictor: variants/measurements mismatch");
    RELPERF_REQUIRE(variants.size() >= 2,
                    "PerformancePredictor: need at least two training points");
    RELPERF_REQUIRE(!backend_universe.empty(),
                    "PerformancePredictor: empty backend universe");

    std::vector<std::vector<double>> rows;
    std::vector<double> targets;
    rows.reserve(variants.size());
    targets.reserve(variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
        rows.push_back(
            extract_variant_features(chain, variants[i], backend_universe)
                .values);
        targets.push_back(stats::mean(measurements.samples(i)));
    }
    regressor_.fit(rows, targets, config_.ridge_lambda);
    backend_universe_ = std::move(backend_universe);
}

double PerformancePredictor::predict_seconds(
    const workloads::TaskChain& chain,
    const workloads::VariantAssignment& variant) const {
    return regressor_.predict(
        extract_variant_features(chain, variant, backend_universe_).values);
}

namespace {

/// Tie-band decision over two predicted times.
core::Ordering compare_predicted(double ta, double tb, double tie_epsilon) {
    const double band = tie_epsilon * std::min(std::fabs(ta), std::fabs(tb));
    if (std::fabs(ta - tb) <= band) return core::Ordering::Equivalent;
    return ta < tb ? core::Ordering::Better : core::Ordering::Worse;
}

} // namespace

core::RankedSequence PerformancePredictor::rank(
    const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants) const {
    RELPERF_REQUIRE(!variants.empty(), "PerformancePredictor: empty set");
    const core::ThreeWaySorter sorter([&](std::size_t a, std::size_t b) {
        return compare_predicted(predict_seconds(chain, variants[a]),
                                 predict_seconds(chain, variants[b]),
                                 config_.tie_epsilon);
    });
    return sorter.sort(variants.size());
}

PredictionEval evaluate_predictor(
    const PerformancePredictor& predictor, const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants,
    const core::MeasurementSet& measurements, const core::Clustering& clustering) {
    RELPERF_REQUIRE(variants.size() == measurements.size(),
                    "evaluate_predictor: variants/measurements mismatch");
    RELPERF_REQUIRE(variants.size() >= 2,
                    "evaluate_predictor: need at least two variants");

    std::vector<double> measured;
    std::vector<double> predicted;
    double rel_error = 0.0;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        measured.push_back(stats::mean(measurements.samples(i)));
        predicted.push_back(predictor.predict_seconds(chain, variants[i]));
        rel_error += std::fabs(predicted[i] - measured[i]) / measured[i];
    }

    PredictionEval eval;
    eval.kendall_tau = stats::kendall_tau_b(predicted, measured);
    eval.spearman_rho = stats::spearman_rho(predicted, measured);
    eval.pairwise_disagreement = stats::pairwise_disagreement(measured, predicted);
    eval.mean_abs_rel_error = rel_error / static_cast<double>(variants.size());

    const core::RankedSequence predicted_ranks =
        predictor.rank(chain, variants);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        if (predicted_ranks.rank_of(i) == clustering.final_rank(i)) ++agree;
    }
    eval.rank_agreement =
        static_cast<double>(agree) / static_cast<double>(variants.size());
    return eval;
}

} // namespace relperf::model
