#include "search/model_guided_search.hpp"

#include "campaign/runner.hpp"
#include "core/pipeline.hpp"
#include "stats/descriptive.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace relperf::search {

void SearchConfig::validate() const {
    RELPERF_REQUIRE(initial_samples >= 2,
                    "SearchConfig: need at least two initial samples");
    RELPERF_REQUIRE(batch_size >= 1, "SearchConfig: batch size must be >= 1");
    RELPERF_REQUIRE(explore_fraction >= 0.0 && explore_fraction <= 1.0,
                    "SearchConfig: explore fraction must be in [0, 1]");
}

ModelGuidedSearch::ModelGuidedSearch(campaign::CampaignSpec spec,
                                     SearchConfig config)
    : spec_(std::move(spec)), config_(config) {
    spec_.validate();
    config_.validate();
    RELPERF_REQUIRE(!spec_.adaptive(),
                    "ModelGuidedSearch: the search measures a fixed N per "
                    "variant; the spec is adaptive");
    RELPERF_REQUIRE(spec_.measurements >= 2,
                    "ModelGuidedSearch: need at least two measurements per "
                    "variant");
}

SearchResult ModelGuidedSearch::run() const {
    const workloads::TaskChain chain = spec_.chain();
    const std::vector<workloads::VariantAssignment> space = spec_.variants();
    campaign::GlobalSampleSource bundle(spec_);

    // drawn[i] holds variant i's N samples once measured; empty = unmeasured.
    std::vector<std::vector<double>> drawn(space.size());
    const auto measure = [&](std::size_t index) {
        if (drawn[index].empty()) {
            drawn[index] = bundle.source().draw(index, spec_.measurements);
        }
    };

    stats::Rng rng(config_.seed);

    // Phase 1: random subset.
    {
        std::vector<std::size_t> order(space.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        rng.shuffle(order);
        const std::size_t initial =
            std::min(config_.initial_samples, space.size());
        for (std::size_t i = 0; i < initial; ++i) measure(order[i]);
    }

    // Phase 2: fit / predict / measure the most promising batch.
    SearchResult result;
    result.predictor = model::PerformancePredictor(config_.predictor);
    // Fit over the plan's backend axis, not the backends the sampled subset
    // happens to cover: phase 2 predicts across the whole space, and a
    // universe derived from an unlucky initial sample would reject variants
    // on the missing backend. The chain's backend rides along so the
    // returned predictor can also price plain (backend-inherit) variants.
    std::vector<std::string> universe = spec_.variant_backends;
    if (std::find(universe.begin(), universe.end(), chain.backend) ==
        universe.end()) {
        universe.push_back(chain.backend);
    }
    // Collects the measured rows in ascending global-index order and refits.
    const auto fit = [&] {
        result.measured_indices.clear();
        result.measured_variants.clear();
        result.measurements = {};
        for (std::size_t i = 0; i < space.size(); ++i) {
            if (drawn[i].empty()) continue;
            result.measured_indices.push_back(i);
            result.measured_variants.push_back(space[i]);
            result.measurements.add(space[i].alg_name(), drawn[i]);
        }
        result.predictor.fit(chain, result.measured_variants,
                             result.measurements, universe);
    };
    std::vector<double> predicted(space.size());
    for (std::size_t round = 0; round < config_.refinement_rounds; ++round) {
        fit();

        std::vector<std::size_t> unmeasured;
        for (std::size_t i = 0; i < space.size(); ++i) {
            if (drawn[i].empty()) {
                unmeasured.push_back(i);
                predicted[i] = result.predictor.predict_seconds(chain, space[i]);
            }
        }
        if (unmeasured.empty()) break;

        std::sort(unmeasured.begin(), unmeasured.end(),
                  [&](std::size_t a, std::size_t b) {
                      return predicted[a] < predicted[b];
                  });

        const std::size_t batch = std::min(config_.batch_size, unmeasured.size());
        const auto explore = static_cast<std::size_t>(
            std::floor(config_.explore_fraction * static_cast<double>(batch)));
        const std::size_t exploit = batch - explore;

        // Exploit: best predicted candidates.
        for (std::size_t i = 0; i < exploit; ++i) measure(unmeasured[i]);
        // Explore: random unmeasured candidates (keeps the model honest).
        for (std::size_t i = 0; i < explore; ++i) {
            const std::size_t pick =
                exploit +
                static_cast<std::size_t>(rng.uniform_index(unmeasured.size() - exploit));
            measure(unmeasured[pick]);
        }
    }
    fit();

    // Phase 3: cluster the measured subset with the paper methodology,
    // under the spec's analysis knobs.
    result.clustering =
        core::analyze_measurements(result.measurements, spec_.analysis_config())
            .clustering;
    result.space_size = space.size();
    result.measured_count = result.measured_indices.size();
    result.best_measured_mean = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < result.measured_count; ++i) {
        const double mean = stats::mean(result.measurements.samples(i));
        if (mean < result.best_measured_mean) {
            result.best_measured_mean = mean;
            result.best = result.measured_variants[i];
        }
    }
    return result;
}

} // namespace relperf::search
