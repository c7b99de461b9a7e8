#include "model/predictor.hpp"

#include "core/pipeline.hpp"
#include "sim/profile.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

namespace core = relperf::core;
namespace model = relperf::model;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using workloads::VariantAssignment;

namespace {

struct Fixture {
    workloads::TaskChain chain = workloads::paper_rls_chain(10);
    sim::CalibratedProfile profile = sim::paper_rls_profile();
    sim::SimulatedExecutor executor{profile, sim::NoiseModel{}};
    std::vector<VariantAssignment> variants = workloads::enumerate_assignments(3);
    core::AnalysisResult analysis = [this] {
        core::AnalysisConfig config;
        config.measurements_per_alg = 30;
        config.clustering.repetitions = 60;
        return core::analyze_chain(executor, chain, variants, config);
    }();
};

} // namespace

TEST(Predictor, LinearModelSpansTheCalibratedCostModel) {
    // Trained on *noise-free* expected times for all 8 assignments, the
    // linear features must represent the conditional cost model exactly
    // (the features are chosen to span the simulator's model).
    Fixture f;
    const sim::SimulatedExecutor exact(f.profile, sim::NoiseModel::none());
    core::MeasurementSet noiseless;
    for (const auto& a : f.variants) {
        noiseless.add(a.alg_name(),
                      {exact.expected_seconds(f.chain, a),
                       exact.expected_seconds(f.chain, a)});
    }
    model::PerformancePredictor predictor(model::PredictorConfig{1e-9, 0.02});
    predictor.fit(f.chain, f.variants, noiseless);
    for (const auto& a : f.variants) {
        EXPECT_NEAR(predictor.predict_seconds(f.chain, VariantAssignment(a)),
                    exact.expected_seconds(f.chain, a), 1e-6)
            << a.str();
    }
}

TEST(Predictor, OrdersTheFullSpaceFromNoisyMeasurements) {
    Fixture f;
    model::PerformancePredictor predictor;
    predictor.fit(f.chain, f.variants, f.analysis.measurements);

    const model::PredictionEval eval = model::evaluate_predictor(
        predictor, f.chain, f.variants, f.analysis.measurements,
        f.analysis.clustering);
    EXPECT_GT(eval.kendall_tau, 0.8);
    EXPECT_GT(eval.spearman_rho, 0.85);
    EXPECT_LT(eval.pairwise_disagreement, 0.15);
    EXPECT_LT(eval.mean_abs_rel_error, 0.05);
}

TEST(Predictor, GeneralizesFromSubsetToHeldOutAssignments) {
    Fixture f;
    // Train on 6 assignments, predict the 2 held out.
    std::vector<VariantAssignment> train_variants;
    core::MeasurementSet train_set;
    std::vector<VariantAssignment> held_out;
    for (std::size_t i = 0; i < f.variants.size(); ++i) {
        const std::string name = f.variants[i].alg_name();
        if (name == "algDDA" || name == "algAAD") {
            held_out.push_back(f.variants[i]);
            continue;
        }
        train_variants.push_back(f.variants[i]);
        const auto samples = f.analysis.measurements.samples(i);
        train_set.add(name, {samples.begin(), samples.end()});
    }

    model::PerformancePredictor predictor;
    predictor.fit(f.chain, train_variants, train_set);

    // Predicted times of the held-out extremes must land on the right side:
    // algDDA near the fast end, algAAD clearly slowest.
    const double pred_dda = predictor.predict_seconds(f.chain, held_out[0]);
    const double pred_aad = predictor.predict_seconds(f.chain, held_out[1]);
    const double meas_ddd = f.analysis.measurements.summary(
        f.analysis.measurements.index_of("algDDD")).mean;
    EXPECT_LT(pred_dda, meas_ddd * 1.02);
    EXPECT_GT(pred_aad, meas_ddd * 1.15);
    EXPECT_GT(pred_aad, pred_dda * 1.25);
}

TEST(Predictor, CompareUsesTieBand) {
    Fixture f;
    model::PerformancePredictor predictor(model::PredictorConfig{1e-3, 0.5});
    predictor.fit(f.chain, f.variants, f.analysis.measurements);
    // A 50% tie band makes nearly everything equivalent.
    EXPECT_EQ(predictor.compare(f.chain, VariantAssignment("DDD"),
                                VariantAssignment("DDA")),
              core::Ordering::Equivalent);

    model::PerformancePredictor sharp(model::PredictorConfig{1e-3, 0.0});
    sharp.fit(f.chain, f.variants, f.analysis.measurements);
    EXPECT_EQ(sharp.compare(f.chain, VariantAssignment("DDA"),
                            VariantAssignment("AAD")),
              core::Ordering::Better);
    EXPECT_EQ(sharp.compare(f.chain, VariantAssignment("AAD"),
                            VariantAssignment("DDA")),
              core::Ordering::Worse);
}

TEST(Predictor, RankProducesValidRankedSequence) {
    Fixture f;
    model::PerformancePredictor predictor;
    predictor.fit(f.chain, f.variants, f.analysis.measurements);
    const core::RankedSequence seq = predictor.rank(f.chain, f.variants);
    ASSERT_EQ(seq.order.size(), 8u);
    core::check_rank_invariant(seq.ranks);
    // The predicted winner class contains algDDA.
    const std::size_t dda_pos = seq.position_of(
        static_cast<std::size_t>(f.analysis.measurements.index_of("algDDA")));
    EXPECT_EQ(seq.ranks[dda_pos], 1);
}

TEST(Predictor, InvalidUsageThrows) {
    Fixture f;
    model::PerformancePredictor predictor;
    EXPECT_THROW((void)predictor.predict_seconds(f.chain, VariantAssignment("DDD")),
                 relperf::InvalidArgument);
    core::MeasurementSet tiny;
    tiny.add("algDDD", {1.0});
    EXPECT_THROW(predictor.fit(f.chain, {VariantAssignment("DDD")}, tiny),
                 relperf::InvalidArgument);
    EXPECT_THROW(model::PerformancePredictor(model::PredictorConfig{-1.0, 0.0}),
                 relperf::InvalidArgument);
}
