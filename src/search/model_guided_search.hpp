#pragma once
//! \file model_guided_search.hpp
//! Subset-based exploration of exponential variant spaces — the paper's
//! Sec. V outlook: "in case of exponential explosion of the search space,
//! our methodology can still be applied on a subset of possible solutions
//! and the resulting clusters ... can be used as a ground truth to guide the
//! search".
//!
//! A search is a campaign over a growing set of global variant indices of
//! one fixed-N CampaignSpec, which fixes the chain, the candidate space
//! (spec.variants()), the executor, N, the measurement seed and every
//! analysis knob. Strategy (measure-fit-predict-refine):
//!   1. measure a random subset of variants;
//!   2. fit the execution-less PerformancePredictor on the measured subset;
//!   3. predict every unmeasured variant, measure the most promising batch
//!      (plus epsilon-greedy exploration);
//!   4. repeat; finally cluster the *measured* variants with the paper's
//!      methodology under spec.analysis_config().
//!
//! Every draw goes through one campaign::GlobalSampleSource, so variant i
//! draws on the stream of global index i: the measured rows are those of
//! campaign::run_campaign(spec), whatever order or seed the search visits
//! with.

#include "campaign/spec.hpp"
#include "core/clustering.hpp"
#include "core/measurement.hpp"
#include "model/predictor.hpp"
#include "workloads/assignment.hpp"

#include <cstdint>
#include <vector>

namespace relperf::search {

/// The search's own knobs; the measurements and the clustering are the
/// spec's.
struct SearchConfig {
    std::size_t initial_samples = 12;   ///< Random variants measured first.
    std::size_t refinement_rounds = 3;  ///< Fit/predict/measure iterations.
    std::size_t batch_size = 6;         ///< Variants measured per round.
    double explore_fraction = 0.25;     ///< Portion of each batch drawn randomly.
    model::PredictorConfig predictor;   ///< Ridge + tie-band knobs.
    /// Drives the initial subset and the exploration draws only; it moves
    /// no measured sample.
    std::uint64_t seed = 0xBEEF;

    void validate() const;
};

/// Outcome of one search.
struct SearchResult {
    workloads::VariantAssignment best{"D"}; ///< Best measured variant.
    double best_measured_mean = 0.0;   ///< Its measured mean seconds.
    std::size_t space_size = 0;        ///< Variants in spec.variants().
    std::size_t measured_count = 0;    ///< Variants actually executed.
    /// Global indices (positions in spec.variants()) of the measured
    /// variants, ascending. measurements, measured_variants and the
    /// clustering's rows follow this order.
    std::vector<std::size_t> measured_indices;
    core::MeasurementSet measurements; ///< All measured distributions.
    std::vector<workloads::VariantAssignment> measured_variants;
    core::Clustering clustering;       ///< Paper clustering of the subset.
    model::PerformancePredictor predictor; ///< Final fitted model.

    /// Fraction of the space that was executed.
    [[nodiscard]] double measured_fraction() const noexcept {
        return space_size == 0
                   ? 0.0
                   : static_cast<double>(measured_count) /
                         static_cast<double>(space_size);
    }
};

/// Runs the model-guided search over a spec's variants. The predictor's
/// backend universe is the plan's backend axis plus the chain's backend.
class ModelGuidedSearch {
public:
    /// Validates both; throws InvalidArgument for an adaptive spec (the
    /// search measures a fixed N per variant) and for measurements < 2.
    ModelGuidedSearch(campaign::CampaignSpec spec, SearchConfig config);

    [[nodiscard]] SearchResult run() const;

private:
    campaign::CampaignSpec spec_;
    SearchConfig config_;
};

} // namespace relperf::search
