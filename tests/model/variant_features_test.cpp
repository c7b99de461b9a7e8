//! Variant feature extraction and the spanning property over mixed-backend
//! chains: the backend-split features must let the linear predictor
//! represent the simulator's per-backend throughput multipliers *exactly*
//! (the Sec. V promise — predict without executing — extended to the
//! placement×backend variant space).

#include "model/features.hpp"
#include "model/predictor.hpp"

#include "core/measurement.hpp"
#include "sim/analytic.hpp"
#include "sim/executor.hpp"
#include "support/error.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace core = relperf::core;
namespace model = relperf::model;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using workloads::VariantAssignment;

namespace {

const std::vector<std::string> kBackends = {"portable", "blas", "reference"};

sim::Platform gained_platform() {
    sim::Platform p = sim::paper_cpu_gpu_platform();
    p.backend_gains.entries = {
        {"blas", 0.55, 0.85},
        {"reference", 2.2, 1.4},
    };
    return p;
}

workloads::TaskChain variant_chain() {
    workloads::TaskChain chain =
        workloads::make_rls_chain({50, 75, 300}, 10, "variant-model");
    chain.backend = "portable";
    return chain;
}

} // namespace

TEST(VariantFeatures, NamesMatchValuesAndScaleWithUniverse) {
    const workloads::TaskChain chain = variant_chain();
    const auto names = model::variant_feature_names(chain, kBackends);
    const model::FeatureVector f = model::extract_variant_features(
        chain, VariantAssignment("D:blas,A:reference,D"), kBackends);
    ASSERT_EQ(names.size(), f.values.size());
    // (2B + 3) per task + 1 + 2B + 2 chain-level.
    EXPECT_EQ(names.size(),
              (2 * kBackends.size() + 3) * chain.size() + 2 * kBackends.size() + 3);

    const auto value_of = [&](const std::string& name) {
        const auto it = std::find(names.begin(), names.end(), name);
        EXPECT_NE(it, names.end()) << name;
        return f.values[static_cast<std::size_t>(it - names.begin())];
    };
    // Task L1 runs on the Device with blas: only that bucket carries iters.
    EXPECT_DOUBLE_EQ(value_of("dev_iters@blas[L1]"), 10.0);
    EXPECT_DOUBLE_EQ(value_of("dev_iters@portable[L1]"), 0.0);
    EXPECT_DOUBLE_EQ(value_of("acc_iters@blas[L1]"), 0.0);
    // Task L2 offloaded on reference.
    EXPECT_DOUBLE_EQ(value_of("acc_iters@reference[L2]"), 10.0);
    // Task L3 inherits the chain default (portable).
    EXPECT_DOUBLE_EQ(value_of("dev_iters@portable[L3]"), 10.0);
    // Backend-weighted FLOPs bucket the same way.
    EXPECT_GT(value_of("device_flops@blas"), 0.0);
    EXPECT_GT(value_of("accel_flops@reference"), 0.0);
    EXPECT_DOUBLE_EQ(value_of("accel_flops@blas"), 0.0);
}

TEST(VariantFeatures, InheritBucketUsesTheLabel) {
    workloads::TaskChain chain = variant_chain();
    chain.backend = ""; // ambient inherit
    const std::vector<std::string> universe = {""};
    const auto names = model::variant_feature_names(chain, universe);
    EXPECT_NE(std::find(names.begin(), names.end(), "dev_iters@inherit[L1]"),
              names.end());
    EXPECT_NO_THROW((void)model::extract_variant_features(
        chain, VariantAssignment("DDD"), universe));
}

TEST(VariantFeatures, UnknownResolvedBackendThrows) {
    const workloads::TaskChain chain = variant_chain();
    EXPECT_THROW((void)model::extract_variant_features(
                     chain, VariantAssignment("D:nonesuch,D,D"), kBackends),
                 relperf::InvalidArgument);
}

TEST(VariantPredictor, SpansTheMixedBackendCostModelExactly) {
    // Noise-free expected times of *all* (2*3)^3 = 216 variants; the linear
    // predictor trained on them must reproduce every single one — the
    // variant features span the gained analytic cost model.
    const workloads::TaskChain chain = variant_chain();
    const sim::AnalyticCostModel priced(gained_platform());
    const sim::SimulatedExecutor exact(priced, sim::NoiseModel::none());

    const std::vector<VariantAssignment> variants =
        workloads::enumerate_variants(chain.size(), kBackends);
    core::MeasurementSet noiseless;
    for (const VariantAssignment& v : variants) {
        const double t = exact.expected_seconds(chain, v);
        noiseless.add(v.alg_name(), {t, t});
    }

    model::PerformancePredictor predictor(model::PredictorConfig{1e-9, 0.02});
    predictor.fit(chain, variants, noiseless);
    EXPECT_EQ(predictor.backend_universe().size(), kBackends.size());

    for (const VariantAssignment& v : variants) {
        EXPECT_NEAR(predictor.predict_seconds(chain, v),
                    exact.expected_seconds(chain, v), 1e-6)
            << v.str();
    }
}

TEST(VariantPredictor, GeneralizesAcrossBackendMixes) {
    // Hold out every variant that mixes blas and reference; train on the
    // rest. The per-(task, backend) features make the held-out mixes exact
    // linear combinations of what was seen.
    const workloads::TaskChain chain = variant_chain();
    const sim::AnalyticCostModel priced(gained_platform());
    const sim::SimulatedExecutor exact(priced, sim::NoiseModel::none());

    std::vector<VariantAssignment> train;
    std::vector<VariantAssignment> held_out;
    core::MeasurementSet train_set;
    for (const VariantAssignment& v :
         workloads::enumerate_variants(chain.size(), kBackends)) {
        bool has_blas = false;
        bool has_reference = false;
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (v.at(i).backend == "blas") has_blas = true;
            if (v.at(i).backend == "reference") has_reference = true;
        }
        if (has_blas && has_reference) {
            held_out.push_back(v);
            continue;
        }
        const double t = exact.expected_seconds(chain, v);
        train.push_back(v);
        train_set.add(v.alg_name(), {t, t});
    }
    ASSERT_FALSE(held_out.empty());

    model::PerformancePredictor predictor(model::PredictorConfig{1e-9, 0.02});
    predictor.fit(chain, train, train_set);
    for (const VariantAssignment& v : held_out) {
        const double expected = exact.expected_seconds(chain, v);
        EXPECT_NEAR(predictor.predict_seconds(chain, v), expected,
                    1e-6 * std::max(1.0, expected))
            << v.str();
    }
}

TEST(VariantPredictor, ExplicitUniverseCoversUnsampledBackends) {
    // Subset search fits on whatever variants it happened to sample; the
    // explicit-universe fit must let it predict variants on backends the
    // training subset never touched.
    const workloads::TaskChain chain = variant_chain();
    const sim::AnalyticCostModel priced(gained_platform());
    const sim::SimulatedExecutor exact(priced, sim::NoiseModel::none());

    std::vector<VariantAssignment> portable_only = {
        VariantAssignment("D:portable,D:portable,D:portable"),
        VariantAssignment("D:portable,A:portable,D:portable"),
        VariantAssignment("A:portable,A:portable,A:portable"),
    };
    core::MeasurementSet set;
    for (const VariantAssignment& v : portable_only) {
        const double t = exact.expected_seconds(chain, v);
        set.add(v.alg_name(), {t, t});
    }

    model::PerformancePredictor predictor(model::PredictorConfig{1e-9, 0.02});
    predictor.fit(chain, portable_only, set, kBackends);
    EXPECT_EQ(predictor.backend_universe(), kBackends);
    // Never-sampled backend: prediction must not throw (the value is an
    // extrapolation and may be off; representability is the contract).
    EXPECT_NO_THROW((void)predictor.predict_seconds(
        chain, VariantAssignment("D:blas,A:reference,D:portable")));

    // Without the explicit universe the same fit cannot represent blas.
    predictor.fit(chain, portable_only, set);
    EXPECT_THROW((void)predictor.predict_seconds(
                     chain, VariantAssignment("D:blas,D:portable,D:portable")),
                 relperf::InvalidArgument);
}

TEST(VariantPredictor, PlacementFitRejectsUnseenBackends) {
    // A fit on plain placements (every task inheriting the chain backend)
    // has the universe {chain backend}: it prices any variant on that
    // backend and refuses one on a backend it never saw.
    const workloads::TaskChain chain = variant_chain();
    const sim::AnalyticCostModel priced(gained_platform());
    const sim::SimulatedExecutor exact(priced, sim::NoiseModel::none());

    const auto variants = workloads::enumerate_assignments(chain.size());
    core::MeasurementSet noiseless;
    for (const VariantAssignment& v : variants) {
        const double t = exact.expected_seconds(chain, v);
        noiseless.add(v.alg_name(), {t, t});
    }
    model::PerformancePredictor predictor(model::PredictorConfig{1e-9, 0.02});
    predictor.fit(chain, variants, noiseless);
    EXPECT_EQ(predictor.backend_universe(),
              std::vector<std::string>{chain.backend});
    EXPECT_NO_THROW(
        (void)predictor.predict_seconds(chain, VariantAssignment("DDA")));
    EXPECT_NO_THROW((void)predictor.predict_seconds(
        chain, VariantAssignment("D:portable,D,A")));
    EXPECT_THROW((void)predictor.predict_seconds(
                     chain, VariantAssignment("D:blas,D,D")),
                 relperf::InvalidArgument);
}
