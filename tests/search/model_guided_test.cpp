#include "search/model_guided_search.hpp"

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/pipeline.hpp"
#include "sim/analytic.hpp"
#include "support/error.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

namespace campaign = relperf::campaign;
namespace core = relperf::core;
namespace search = relperf::search;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;

namespace {

/// Expected-time rank of `variant` within the spec's full space (0 = best),
/// on the noise-free cost model of the spec's platform preset.
std::size_t exhaustive_rank(const campaign::CampaignSpec& spec,
                            const workloads::VariantAssignment& variant) {
    const sim::AnalyticCostModel model(campaign::platform_preset(spec.platform));
    const sim::SimulatedExecutor executor(model, sim::NoiseModel{});
    const workloads::TaskChain chain = spec.chain();
    const double chosen = executor.expected_seconds(chain, variant);
    std::size_t better = 0;
    for (const auto& v : spec.variants()) {
        if (executor.expected_seconds(chain, v) < chosen) ++better;
    }
    return better;
}

/// The paper's Table I chain (sizes 50/75/300, 10 iterations) on the
/// paper-cpu-gpu preset.
campaign::CampaignSpec paper_spec() {
    campaign::CampaignSpec spec;
    spec.name = "paper-search";
    spec.measurements = 15;
    return spec;
}

} // namespace

TEST(ModelGuidedSearch, FindsTheWinnerOnThePaperChain) {
    search::SearchConfig config;
    config.initial_samples = 4;
    config.refinement_rounds = 2;
    config.batch_size = 2;
    config.seed = 5;
    const campaign::CampaignSpec spec = paper_spec();
    const search::ModelGuidedSearch searcher(spec, config);
    const search::SearchResult result = searcher.run();

    EXPECT_EQ(result.space_size, 8u);
    EXPECT_LE(result.measured_count, 8u);
    // Found assignment is in the true top-2 of the space.
    EXPECT_LE(exhaustive_rank(spec, result.best), 1u);
}

TEST(ModelGuidedSearch, LargeSpaceMeasuresOnlyASmallFraction) {
    // 10 tasks -> 1024 assignments; the search must execute well under 10%
    // of them and still land in the top percentile of the space.
    campaign::CampaignSpec spec;
    spec.name = "big-chain";
    spec.sizes = {40, 60, 80, 100, 140, 180, 220, 260, 300, 340};
    spec.iters = 5;
    spec.measurements = 10;

    search::SearchConfig config;
    config.initial_samples = 16;
    config.refinement_rounds = 4;
    config.batch_size = 10;
    config.seed = 11;
    const search::ModelGuidedSearch searcher(spec, config);
    const search::SearchResult result = searcher.run();

    EXPECT_EQ(result.space_size, 1024u);
    EXPECT_LE(result.measured_count, 60u);
    EXPECT_LT(result.measured_fraction(), 0.06);

    // Quality: within the top 2% of the exhaustive expected-time ranking.
    EXPECT_LE(exhaustive_rank(spec, result.best), 20u);
}

TEST(ModelGuidedSearch, ResultBundleIsConsistent) {
    search::SearchConfig config;
    config.initial_samples = 4;
    config.refinement_rounds = 1;
    config.batch_size = 2;
    const search::ModelGuidedSearch searcher(paper_spec(), config);
    const search::SearchResult result = searcher.run();

    EXPECT_EQ(result.measurements.size(), result.measured_count);
    EXPECT_EQ(result.measured_indices.size(), result.measured_count);
    EXPECT_EQ(result.measured_variants.size(), result.measured_count);
    EXPECT_TRUE(std::is_sorted(result.measured_indices.begin(),
                               result.measured_indices.end()));
    EXPECT_EQ(result.clustering.final_assignment.size(), result.measured_count);
    EXPECT_TRUE(result.predictor.is_fitted());
    // best is one of the measured variants with the minimal mean.
    double best_mean = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < result.measurements.size(); ++i) {
        best_mean =
            std::min(best_mean, result.measurements.summary(i).mean);
    }
    EXPECT_DOUBLE_EQ(result.best_measured_mean, best_mean);
    EXPECT_TRUE(result.measurements.contains(result.best.alg_name()));
}

TEST(ModelGuidedSearch, DeterministicUnderFixedSeed) {
    search::SearchConfig config;
    config.initial_samples = 4;
    config.refinement_rounds = 2;
    config.batch_size = 2;
    config.seed = 99;
    const search::ModelGuidedSearch s1(paper_spec(), config);
    const search::ModelGuidedSearch s2(paper_spec(), config);
    const search::SearchResult r1 = s1.run();
    const search::SearchResult r2 = s2.run();
    EXPECT_EQ(r1.best, r2.best);
    EXPECT_DOUBLE_EQ(r1.best_measured_mean, r2.best_measured_mean);
    EXPECT_EQ(r1.measured_indices, r2.measured_indices);
}

TEST(ModelGuidedSearch, InvalidConfigThrows) {
    const campaign::CampaignSpec spec = paper_spec();
    search::SearchConfig config;
    config.initial_samples = 1;
    EXPECT_THROW(search::ModelGuidedSearch(spec, config),
                 relperf::InvalidArgument);
    config = {};
    config.explore_fraction = 1.5;
    EXPECT_THROW(search::ModelGuidedSearch(spec, config),
                 relperf::InvalidArgument);
    config = {};
    config.batch_size = 0;
    EXPECT_THROW(search::ModelGuidedSearch(spec, config),
                 relperf::InvalidArgument);

    // The search measures a fixed N of at least two samples per variant.
    config = {};
    campaign::CampaignSpec adaptive = spec;
    adaptive.adaptive_min = 5;
    EXPECT_THROW(search::ModelGuidedSearch(adaptive, config),
                 relperf::InvalidArgument);
    campaign::CampaignSpec single = spec;
    single.measurements = 1;
    EXPECT_THROW(search::ModelGuidedSearch(single, config),
                 relperf::InvalidArgument);
    // The spec's own validation applies (it caps a plan at 16 tasks).
    campaign::CampaignSpec huge = spec;
    huge.sizes.assign(17, 8);
    EXPECT_THROW(search::ModelGuidedSearch(huge, config),
                 relperf::InvalidArgument);
}

TEST(ModelGuidedSearch, MeasuredRowsEqualTheCampaignRows) {
    // The search is a campaign over its measured global indices: the rows it
    // reports are the rows GlobalSampleSource measures for those indices,
    // and its clustering is analyze_measurements of them under the spec's
    // analysis knobs — non-default R, epsilon and clustering seed included.
    campaign::CampaignSpec spec;
    spec.name = "rows";
    spec.sizes = {40, 60, 120, 200};
    spec.iters = 6;
    spec.measurements = 8;
    spec.variant_backends = {"portable", "reference"};
    spec.clustering_repetitions = 20;
    spec.bootstrap_rounds = 60;
    spec.tie_epsilon = 0.05;
    spec.clustering_seed = 1234;

    search::SearchConfig config;
    config.initial_samples = 10;
    config.refinement_rounds = 2;
    config.batch_size = 5;
    config.seed = 3;
    const search::SearchResult result =
        search::ModelGuidedSearch(spec, config).run();

    campaign::GlobalSampleSource rows(spec, result.measured_indices);
    const core::MeasurementSet expected =
        core::measure_all(rows.source(), spec.measurements);
    ASSERT_EQ(result.measurements.size(), expected.size());
    const std::vector<workloads::VariantAssignment> space = spec.variants();
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(result.measurements.name(i), expected.name(i));
        EXPECT_EQ(result.measured_variants[i],
                  space[result.measured_indices[i]]);
        const auto got = result.measurements.samples(i);
        const auto want = expected.samples(i);
        EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
            << expected.name(i);
    }
    EXPECT_EQ(result.clustering,
              core::analyze_measurements(expected, spec.analysis_config())
                  .clustering);
}

TEST(ModelGuidedSearch, RunsOnTheRealExecutor) {
    // Structure only: a real spec measures wall-clock time on the host that
    // runs the test, so no timing is asserted.
    campaign::CampaignSpec spec;
    spec.name = "real-search";
    spec.executor = campaign::ExecutorKind::Real;
    spec.sizes = {16, 24, 32};
    spec.iters = 2;
    spec.measurements = 3;
    spec.warmup = 0;
    spec.dispatch_delay_us = 0.0;
    spec.switch_delay_us = 0.0;
    spec.clustering_repetitions = 5;
    spec.bootstrap_rounds = 20;

    search::SearchConfig config;
    config.initial_samples = 3;
    config.refinement_rounds = 1;
    config.batch_size = 2;
    const search::SearchResult result =
        search::ModelGuidedSearch(spec, config).run();

    EXPECT_EQ(result.space_size, 8u);
    EXPECT_EQ(result.measured_count, 5u);
    ASSERT_EQ(result.measurements.size(), result.measured_count);
    for (std::size_t i = 0; i < result.measurements.size(); ++i) {
        EXPECT_EQ(result.measurements.samples(i).size(), spec.measurements);
    }
    EXPECT_EQ(result.clustering.final_assignment.size(), result.measured_count);
    EXPECT_TRUE(result.measurements.contains(result.best.alg_name()));
}
