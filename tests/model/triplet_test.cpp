#include "model/triplet.hpp"

#include "core/pipeline.hpp"
#include "sim/profile.hpp"
#include "stats/ranking.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

namespace core = relperf::core;
namespace model = relperf::model;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using relperf::stats::Rng;

namespace {

/// Clustering with known final ranks, built by hand.
core::Clustering make_clustering(const std::vector<int>& final_ranks) {
    core::Clustering c;
    int max_rank = 0;
    for (const int r : final_ranks) max_rank = std::max(max_rank, r);
    c.clusters.resize(static_cast<std::size_t>(max_rank));
    c.repetitions = 1;
    for (std::size_t alg = 0; alg < final_ranks.size(); ++alg) {
        c.clusters[static_cast<std::size_t>(final_ranks[alg] - 1)].push_back(
            core::ClusterEntry{alg, 1.0});
        c.final_assignment.push_back(
            core::FinalAssignment{alg, final_ranks[alg], 1.0});
    }
    return c;
}

struct PaperFixture {
    workloads::TaskChain chain = workloads::paper_rls_chain(10);
    sim::CalibratedProfile profile = sim::paper_rls_profile();
    sim::SimulatedExecutor executor{profile, sim::NoiseModel{}};
    std::vector<workloads::VariantAssignment> variants =
        workloads::enumerate_assignments(3);
    core::AnalysisResult analysis = [this] {
        core::AnalysisConfig config;
        config.measurements_per_alg = 30;
        config.clustering.repetitions = 60;
        return core::analyze_chain(executor, chain, variants, config);
    }();
};

} // namespace

TEST(SampleTriplets, RespectsClassStructure) {
    const core::Clustering clustering = make_clustering({1, 1, 2, 2, 3});
    Rng rng(1);
    const auto triplets = model::sample_triplets(clustering, 200, rng);
    ASSERT_EQ(triplets.size(), 200u);
    for (const model::Triplet& t : triplets) {
        EXPECT_NE(t.anchor, t.positive);
        EXPECT_EQ(clustering.final_rank(t.anchor),
                  clustering.final_rank(t.positive));
        EXPECT_GT(clustering.final_rank(t.negative),
                  clustering.final_rank(t.anchor));
    }
}

TEST(SampleTriplets, DeterministicUnderSeed) {
    const core::Clustering clustering = make_clustering({1, 1, 2});
    Rng a(7);
    Rng b(7);
    const auto ta = model::sample_triplets(clustering, 50, a);
    const auto tb = model::sample_triplets(clustering, 50, b);
    for (std::size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].anchor, tb[i].anchor);
        EXPECT_EQ(ta[i].positive, tb[i].positive);
        EXPECT_EQ(ta[i].negative, tb[i].negative);
    }
}

TEST(SampleTriplets, ImpossibleStructuresThrow) {
    Rng rng(1);
    // Single cluster: no negatives.
    const core::Clustering one = make_clustering({1, 1, 1});
    EXPECT_THROW((void)model::sample_triplets(one, 10, rng),
                 relperf::InvalidArgument);
    // All singleton clusters: no positives.
    const core::Clustering singletons = make_clustering({1, 2, 3});
    EXPECT_THROW((void)model::sample_triplets(singletons, 10, rng),
                 relperf::InvalidArgument);
    // Too few algorithms.
    const core::Clustering two = make_clustering({1, 2});
    EXPECT_THROW((void)model::sample_triplets(two, 10, rng),
                 relperf::InvalidArgument);
}

TEST(TripletScorer, LearnsASeparableOrdering) {
    // One informative feature: class 1 at x ~ 0, class 2 at x ~ 1,
    // class 3 at x ~ 2 (plus a noise feature).
    Rng rng(3);
    std::vector<std::vector<double>> rows;
    std::vector<int> ranks;
    for (int cls = 1; cls <= 3; ++cls) {
        for (int i = 0; i < 4; ++i) {
            rows.push_back({static_cast<double>(cls) + 0.05 * rng.normal(),
                            rng.normal()});
            ranks.push_back(cls);
        }
    }
    const core::Clustering clustering = make_clustering(ranks);
    Rng sample_rng(4);
    const auto triplets = model::sample_triplets(clustering, 400, sample_rng);

    model::TripletScorer scorer;
    scorer.fit(rows, triplets);

    // Scores must order by class: every class-1 row below every class-3 row.
    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t j = 0; j < rows.size(); ++j) {
            if (ranks[i] < ranks[j]) {
                EXPECT_LT(scorer.score(rows[i]), scorer.score(rows[j]))
                    << i << " vs " << j;
            }
        }
    }
    EXPECT_GT(scorer.triplet_satisfaction(rows, triplets), 0.95);
}

TEST(TripletScorer, ClassLabelsAloneRecoverTheMeasuredOrdering) {
    // The paper's pitch: train from *clusters* (relative supervision), not
    // from absolute times — and still predict the performance ordering.
    PaperFixture f;
    Rng rng(5);
    const model::TripletScorer scorer = model::fit_triplet_scorer(
        f.chain, f.variants, f.analysis.clustering, 600, rng);

    const auto universe = model::resolved_backends(f.chain, f.variants);
    std::vector<double> scores;
    std::vector<double> measured;
    for (std::size_t i = 0; i < f.variants.size(); ++i) {
        scores.push_back(scorer.score(
            model::extract_variant_features(f.chain, f.variants[i], universe)
                .values));
        measured.push_back(f.analysis.measurements.summary(i).mean);
    }
    EXPECT_GT(relperf::stats::kendall_tau_b(scores, measured), 0.6);
    // The best and worst classes must be separated with certainty.
    const std::size_t dda = f.analysis.measurements.index_of("algDDA");
    const std::size_t aad = f.analysis.measurements.index_of("algAAD");
    EXPECT_LT(scores[dda], scores[aad]);
}

TEST(TripletScorer, InvalidUsageThrows) {
    model::TripletScorer scorer;
    EXPECT_THROW(scorer.fit({}, {model::Triplet{}}), relperf::InvalidArgument);
    EXPECT_THROW(scorer.fit({{1.0}}, {}), relperf::InvalidArgument);
    EXPECT_THROW(scorer.fit({{1.0}}, {model::Triplet{0, 0, 5}}),
                 relperf::InvalidArgument);
    const std::vector<double> row = {1.0};
    EXPECT_THROW((void)scorer.score(row), relperf::InvalidArgument);

    model::TripletScorerConfig bad;
    bad.margin = 0.0;
    EXPECT_THROW(model::TripletScorer{bad}, relperf::InvalidArgument);
    bad = {};
    bad.learning_rate = 0.0;
    EXPECT_THROW(model::TripletScorer{bad}, relperf::InvalidArgument);
}
