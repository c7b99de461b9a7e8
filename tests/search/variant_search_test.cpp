//! Model-guided search over the (2·B)^k placement×backend variant space —
//! the Sec. V regime: the full space is never executed; the subset's
//! clusters guide the search. The specs use the `paper-cpu-gpu` preset and
//! the always-registered `portable,reference` axis. No preset sets
//! backend gains, so every backend costs the same here; per-backend cost
//! differences are covered by model.VariantPredictor.*.

#include "search/model_guided_search.hpp"

#include "campaign/spec.hpp"
#include "sim/analytic.hpp"
#include "sim/executor.hpp"
#include "support/error.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace campaign = relperf::campaign;
namespace search = relperf::search;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;

namespace {

campaign::CampaignSpec variant_spec(std::vector<std::size_t> sizes,
                                    std::size_t iters) {
    campaign::CampaignSpec spec;
    spec.name = "variant-search";
    spec.sizes = std::move(sizes);
    spec.iters = iters;
    spec.measurements = 10;
    spec.variant_backends = {"portable", "reference"};
    spec.clustering_repetitions = 40;
    return spec;
}

} // namespace

TEST(VariantSearch, SamplesTheVariantSpace) {
    const campaign::CampaignSpec spec = variant_spec({40, 60, 120, 200, 300}, 6);

    search::SearchConfig config;
    config.initial_samples = 16;
    config.refinement_rounds = 3;
    config.batch_size = 10;

    const search::ModelGuidedSearch searcher(spec, config);
    const search::SearchResult result = searcher.run();

    EXPECT_EQ(result.space_size, 1024u); // (2*2)^5
    EXPECT_LE(result.measured_count, 16u + 3u * 10u);
    EXPECT_LT(result.measured_fraction(), 0.05);
    EXPECT_EQ(result.measured_variants.size(), result.measured_count);
    EXPECT_EQ(result.measured_indices.size(), result.measured_count);
    EXPECT_EQ(result.predictor.backend_universe(), spec.variant_backends);
    EXPECT_TRUE(result.measurements.contains(result.best.alg_name()));

    // The winner must beat keeping everything on the device.
    const sim::AnalyticCostModel model(campaign::platform_preset(spec.platform));
    const sim::SimulatedExecutor executor(model, sim::NoiseModel{});
    const double all_device = executor.expected_seconds(
        spec.chain(), workloads::VariantAssignment("DDDDD"));
    EXPECT_LT(result.best_measured_mean, all_device);

    // The returned predictor also prices plain (backend-inherit) variants:
    // the fit universe includes the chain backend.
    EXPECT_NO_THROW((void)result.predictor.predict_seconds(
        spec.chain(), workloads::VariantAssignment("DADAD")));
}

TEST(VariantSearch, PlainSpecSearchesThePlacements) {
    campaign::CampaignSpec spec;
    spec.name = "plain-search";
    spec.measurements = 15;
    spec.clustering_repetitions = 40;

    const search::ModelGuidedSearch searcher(spec, search::SearchConfig{});
    const search::SearchResult result = searcher.run();

    EXPECT_EQ(result.space_size, 8u);
    EXPECT_EQ(result.predictor.backend_universe(),
              std::vector<std::string>{spec.backend});
    for (const workloads::VariantAssignment& v : result.measured_variants) {
        EXPECT_TRUE(v.uniform_inherit());
    }
}

TEST(VariantSearch, SurvivesInitialSamplesThatMissABackend) {
    // Regression: with a tiny initial sample over a tiny space, some seeds
    // sample only one backend in phase 1. The predictor is fitted over the
    // plan's backend axis, so phase 2 must still predict (not throw on) the
    // unsampled backend's variants.
    campaign::CampaignSpec spec = variant_spec({48}, 4);
    spec.measurements = 4;
    spec.clustering_repetitions = 10;

    search::SearchConfig config;
    config.initial_samples = 2; // of a 4-variant space
    config.refinement_rounds = 1;
    config.batch_size = 1;
    config.explore_fraction = 0.0;

    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        config.seed = seed;
        const search::ModelGuidedSearch searcher(spec, config);
        search::SearchResult result;
        ASSERT_NO_THROW(result = searcher.run()) << "seed " << seed;
        EXPECT_EQ(result.space_size, 4u);
    }
}

TEST(VariantSearch, DeterministicForAFixedSeed) {
    campaign::CampaignSpec spec = variant_spec({40, 60, 120}, 6);
    spec.clustering_repetitions = 30;

    search::SearchConfig config;
    config.seed = 99;

    const search::SearchResult r1 = search::ModelGuidedSearch(spec, config).run();
    const search::SearchResult r2 = search::ModelGuidedSearch(spec, config).run();
    EXPECT_EQ(r1.best, r2.best);
    EXPECT_DOUBLE_EQ(r1.best_measured_mean, r2.best_measured_mean);
    EXPECT_EQ(r1.measured_indices, r2.measured_indices);
    EXPECT_EQ(r1.clustering, r2.clustering);
}

TEST(VariantSearch, VisitOrderMovesNoSample) {
    // Variant i draws on the stream of global index i, so two searches that
    // visit the space in different orders measure identical samples for
    // every variant both of them chose.
    const campaign::CampaignSpec spec = variant_spec({40, 60, 120, 200}, 6);
    search::SearchConfig config;
    config.initial_samples = 24;
    config.batch_size = 8;

    config.seed = 1;
    const search::SearchResult a = search::ModelGuidedSearch(spec, config).run();
    config.seed = 2;
    const search::SearchResult b = search::ModelGuidedSearch(spec, config).run();
    ASSERT_NE(a.measured_indices, b.measured_indices);

    std::size_t shared = 0;
    for (std::size_t i = 0; i < a.measured_indices.size(); ++i) {
        const auto it = std::find(b.measured_indices.begin(),
                                  b.measured_indices.end(),
                                  a.measured_indices[i]);
        if (it == b.measured_indices.end()) continue;
        ++shared;
        const auto j =
            static_cast<std::size_t>(it - b.measured_indices.begin());
        const auto sa = a.measurements.samples(i);
        const auto sb = b.measurements.samples(j);
        EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()))
            << "global index " << a.measured_indices[i];
    }
    EXPECT_GT(shared, 0u);
}
