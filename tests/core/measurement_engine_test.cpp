//! The adaptive measurement engine's contracts:
//!
//!  * with max_n == min_n (adaptive off) it performs exactly one round and
//!    reproduces the fixed-N batch path bit for bit, clustering included;
//!  * adaptive runs early-stop algorithms whose class membership has been
//!    stable for `stability_rounds` consecutive clusterings, never exceed
//!    max_n, and clamp the last batch to the cap;
//!  * every algorithm's adaptive sample is a strict prefix of the fixed-N
//!    sample (per-algorithm streams make extension order-independent);
//!  * runs are deterministic, down to the rounds and per-algorithm counts
//!    on a drifting 32-algorithm source.

#include "core/measurement_engine.hpp"

#include "core/pipeline.hpp"
#include "sim/profile.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

namespace core = relperf::core;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using relperf::stats::Rng;

namespace {

/// Deterministic source: algorithm i yields `base[i] * (1 + tiny wiggle)`
/// at stream position p — clearly separated distributions whose clustering
/// is stable from the first round. Records every draw for assertions.
class ScriptedSource final : public core::SampleSource {
public:
    explicit ScriptedSource(std::vector<std::pair<std::string, double>> algs)
        : algs_(std::move(algs)),
          position_(algs_.size(), 0),
          draw_sizes_(algs_.size()) {}

    [[nodiscard]] std::size_t count() const override { return algs_.size(); }
    [[nodiscard]] std::string name(std::size_t index) const override {
        return algs_.at(index).first;
    }
    [[nodiscard]] std::vector<double> draw(std::size_t index,
                                           std::size_t n) override {
        std::vector<double> out;
        out.reserve(n);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t p = position_[index]++;
            const double wiggle =
                0.001 * static_cast<double>((p * 7) % 11) / 11.0;
            out.push_back(algs_[index].second * (1.0 + wiggle));
        }
        draw_sizes_[index].push_back(n);
        return out;
    }

    std::vector<std::pair<std::string, double>> algs_;
    std::vector<std::size_t> position_;
    std::vector<std::vector<std::size_t>> draw_sizes_;
};

/// 32 algorithms: two clearly separated flat tiers (base 1.0 and 2.0), the
/// last four of which are "wobblers" instead, whose means drift upward at
/// staggered slopes between the tiers, so every extension batch shifts
/// their empirical quantiles.
class DriftingSource final : public core::SampleSource {
public:
    [[nodiscard]] std::size_t count() const override { return kCount; }
    [[nodiscard]] std::string name(std::size_t index) const override {
        return "alg" + std::to_string(index);
    }
    [[nodiscard]] std::vector<double> draw(std::size_t index,
                                           std::size_t n) override {
        const bool wobbler = index + 4 >= kCount;
        std::vector<double> out;
        out.reserve(n);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t pos = position_[index]++;
            if (wobbler) {
                const double slope =
                    0.02 + 0.005 * static_cast<double>(index % 4);
                out.push_back(1.0 + slope * static_cast<double>(pos) +
                              0.01 * static_cast<double>((pos * 13) % 5));
            } else {
                const double base = index < kCount / 2 ? 1.0 : 2.0;
                out.push_back(base * (1.0 + 0.002 * static_cast<double>(
                                                        (pos * 7) % 11)));
            }
        }
        return out;
    }

private:
    static constexpr std::size_t kCount = 32;
    std::vector<std::size_t> position_ = std::vector<std::size_t>(kCount, 0);
};

ScriptedSource two_classes() {
    return ScriptedSource{{{"fast", 1.0}, {"quick", 1.002}, {"slow", 2.0}}};
}

core::MeasurementEngine engine_for(core::AdaptiveConfig adaptive) {
    core::ClustererConfig clustering;
    clustering.repetitions = 30;
    return core::MeasurementEngine(adaptive, {}, clustering);
}

} // namespace

TEST(AdaptiveConfig, Validation) {
    EXPECT_NO_THROW(core::AdaptiveConfig{}.validate());
    core::AdaptiveConfig config;
    config.min_n = 0;
    EXPECT_THROW(config.validate(), relperf::InvalidArgument);
    config = {};
    config.max_n = config.min_n - 1;
    EXPECT_THROW(config.validate(), relperf::InvalidArgument);
    config = {};
    config.batch = 0;
    EXPECT_THROW(config.validate(), relperf::InvalidArgument);
    config = {};
    config.stability_rounds = 0;
    EXPECT_THROW(config.validate(), relperf::InvalidArgument);
    // min_n == max_n is the one-round fixed-N plan, not an error.
    config = {};
    config.min_n = config.max_n = 7;
    EXPECT_NO_THROW(config.validate());
}

TEST(MeasureAll, DrawsNOfEveryAlgorithmInOrder) {
    ScriptedSource source = two_classes();
    const core::MeasurementSet set = core::measure_all(source, 4);
    ASSERT_EQ(set.size(), 3u);
    EXPECT_EQ(set.name(0), "fast");
    EXPECT_EQ(set.name(2), "slow");
    for (std::size_t i = 0; i < set.size(); ++i) {
        EXPECT_EQ(set.samples(i).size(), 4u);
        EXPECT_EQ(source.draw_sizes_[i], std::vector<std::size_t>{4});
    }
    EXPECT_THROW((void)core::measure_all(source, 0), relperf::InvalidArgument);
}

TEST(MeasurementEngine, AdaptiveOffIsOneFixedRound) {
    core::AdaptiveConfig adaptive;
    adaptive.min_n = adaptive.max_n = 6;
    ScriptedSource source = two_classes();
    const core::EngineResult result = engine_for(adaptive).run(source);

    EXPECT_EQ(result.rounds, 1u);
    EXPECT_EQ(result.total_samples, 18u);
    EXPECT_EQ(result.fixed_n_samples, 18u);
    EXPECT_EQ(result.fixed_n_samples - result.total_samples, 0u);
    EXPECT_EQ(result.samples_per_alg,
              (std::vector<std::size_t>{6, 6, 6}));

    // Bit-identical to the legacy batch path, clustering included.
    ScriptedSource again = two_classes();
    core::MeasurementSet batch = core::measure_all(again, 6);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(std::vector<double>(result.measurements.samples(i).begin(),
                                      result.measurements.samples(i).end()),
                  std::vector<double>(batch.samples(i).begin(),
                                      batch.samples(i).end()));
    }
    core::AnalysisConfig analysis;
    analysis.clustering.repetitions = 30;
    const core::AnalysisResult reference =
        core::analyze_measurements(std::move(batch), analysis);
    ASSERT_EQ(result.clustering.cluster_count(),
              reference.clustering.cluster_count());
    for (std::size_t alg = 0; alg < 3; ++alg) {
        EXPECT_EQ(result.clustering.final_assignment[alg].rank,
                  reference.clustering.final_assignment[alg].rank);
        EXPECT_DOUBLE_EQ(result.clustering.final_assignment[alg].score,
                         reference.clustering.final_assignment[alg].score);
    }
}

TEST(MeasurementEngine, StableMembershipStopsAfterStabilityRounds) {
    core::AdaptiveConfig adaptive;
    adaptive.min_n = 5;
    adaptive.max_n = 30;
    adaptive.batch = 3;
    adaptive.stability_rounds = 2;
    ScriptedSource source = two_classes();
    const core::EngineResult result = engine_for(adaptive).run(source);

    // Clearly separated distributions: membership is identical at N = 5, 8
    // and 11, so every algorithm stops after two stable comparisons.
    EXPECT_EQ(result.samples_per_alg,
              (std::vector<std::size_t>{11, 11, 11}));
    EXPECT_EQ(result.rounds, 3u);
    EXPECT_EQ(result.total_samples, 33u);
    EXPECT_EQ(result.fixed_n_samples, 90u);
    EXPECT_EQ(result.fixed_n_samples - result.total_samples, 57u);
    for (std::size_t i = 0; i < source.count(); ++i) {
        EXPECT_EQ(source.draw_sizes_[i],
                  (std::vector<std::size_t>{5, 3, 3}));
    }
    // The clustering separates the two classes.
    EXPECT_EQ(result.clustering.final_rank(0),
              result.clustering.final_rank(1));
    EXPECT_NE(result.clustering.final_rank(0),
              result.clustering.final_rank(2));
}

TEST(MeasurementEngine, ConfidenceRuleStopsOneRoundAfterMembershipRepeats) {
    // Two clearly separated classes: every clustering is unanimous (score
    // 1.0, margin 1 with zero variance), so the confidence rule stops every
    // algorithm on the exact round its membership first *repeats* — round 2.
    // The stability rule at the default stability_rounds = 2 needs round 3
    // on the same source (see StableMembershipStopsAfterStabilityRounds),
    // so this pins both the stop round and the rule's cost advantage.
    core::AdaptiveConfig adaptive;
    adaptive.min_n = 5;
    adaptive.max_n = 30;
    adaptive.batch = 3;
    adaptive.confidence = 0.95;
    ScriptedSource source = two_classes();
    const core::EngineResult result = engine_for(adaptive).run(source);

    EXPECT_EQ(result.rounds, 2u);
    EXPECT_EQ(result.samples_per_alg, (std::vector<std::size_t>{8, 8, 8}));
    EXPECT_EQ(result.total_samples, 24u);
    EXPECT_EQ(result.fixed_n_samples, 90u);
    EXPECT_EQ(result.fixed_n_samples - result.total_samples, 66u);
    for (std::size_t i = 0; i < source.count(); ++i) {
        EXPECT_EQ(source.draw_sizes_[i], (std::vector<std::size_t>{5, 3}));
    }
    EXPECT_EQ(result.clustering.final_rank(0),
              result.clustering.final_rank(1));
    EXPECT_NE(result.clustering.final_rank(0),
              result.clustering.final_rank(2));
}

TEST(MeasurementEngine, ConfidenceConfigValidation) {
    core::AdaptiveConfig config;
    // 0 (the default) is the stability rule; any other level must lie in
    // (0.5, 1).
    EXPECT_EQ(config.confidence, 0.0);
    EXPECT_NO_THROW(config.validate());
    config.confidence = 0.95;
    EXPECT_NO_THROW(config.validate());
    config.confidence = 0.5;
    EXPECT_THROW(config.validate(), relperf::InvalidArgument);
    config.confidence = 1.0;
    EXPECT_THROW(config.validate(), relperf::InvalidArgument);
}

TEST(MeasurementEngine, RoundObserverSeesEveryRoundIncludingTheLast) {
    core::AdaptiveConfig adaptive;
    adaptive.min_n = 5;
    adaptive.max_n = 30;
    adaptive.batch = 3;
    adaptive.stability_rounds = 2;
    ScriptedSource source = two_classes();
    std::vector<core::EngineRound> seen;
    const core::EngineResult result = engine_for(adaptive).run(
        source, [&seen](const core::EngineRound& r) { seen.push_back(r); });

    ASSERT_EQ(seen.size(), result.rounds);
    std::size_t cumulative = 0;
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].round, i + 1);
        cumulative += seen[i].newly_stopped;
        EXPECT_EQ(seen[i].stopped_total, cumulative);
        EXPECT_EQ(seen[i].active, source.count() - cumulative);
    }
    // The final round stops everyone and extends no one.
    EXPECT_EQ(seen.back().stopped_total, source.count());
    EXPECT_EQ(seen.back().active, 0u);
}

TEST(RenderSavings, WellDefinedForZeroFixedBudget) {
    EXPECT_EQ(core::render_savings(0, 0),
              "measured 0 of 0 fixed-N samples, saved 0 (0.0%)");
    // And the overshoot case clamps instead of wrapping.
    EXPECT_EQ(core::render_savings(5, 0),
              "measured 5 of 0 fixed-N samples, saved 0 (0.0%)");
}

TEST(MeasurementEngine, PublishedClusteringEqualsAnalyzeMeasurements) {
    // EngineResult::clustering must equal what analyze_measurements computes
    // on the final measurements.
    core::AdaptiveConfig adaptive;
    adaptive.min_n = 4;
    adaptive.max_n = 16;
    adaptive.batch = 4;
    adaptive.stability_rounds = 2;
    ScriptedSource source = two_classes();
    const core::EngineResult result = engine_for(adaptive).run(source);

    core::AnalysisConfig analysis;
    analysis.clustering.repetitions = 30; // matches engine_for
    const core::AnalysisResult reference = core::analyze_measurements(
        core::MeasurementSet(result.measurements), analysis);
    ASSERT_EQ(result.clustering.cluster_count(),
              reference.clustering.cluster_count());
    for (std::size_t alg = 0; alg < source.count(); ++alg) {
        EXPECT_EQ(result.clustering.final_assignment[alg].rank,
                  reference.clustering.final_assignment[alg].rank);
        EXPECT_EQ(result.clustering.final_assignment[alg].score,
                  reference.clustering.final_assignment[alg].score);
        for (int r = 1; r <= result.clustering.cluster_count(); ++r) {
            EXPECT_EQ(result.clustering.score_of(alg, r),
                      reference.clustering.score_of(alg, r));
        }
    }
}

TEST(MeasurementEngine, DriftingSourcePinsRoundsAndSavings) {
    // On this deterministic source the engine's stop decisions are exact
    // counts: the fast tier stops at N = 11 after three rounds, the slow
    // tier and the wobblers at N = 14 after four.
    core::AdaptiveConfig adaptive;
    adaptive.min_n = 5;
    adaptive.max_n = 60;
    adaptive.batch = 3;
    adaptive.stability_rounds = 2;
    const core::MeasurementEngine engine(
        adaptive, core::BootstrapComparatorConfig{.rounds = 25},
        core::ClustererConfig{20, 55});
    DriftingSource source;
    const core::EngineResult result = engine.run(source);
    EXPECT_EQ(result.rounds, 4u);
    std::vector<std::size_t> expected(32, 14);
    std::fill(expected.begin(), expected.begin() + 16, std::size_t{11});
    EXPECT_EQ(result.samples_per_alg, expected);
    EXPECT_EQ(result.total_samples, 400u);
    EXPECT_EQ(result.fixed_n_samples, 1920u);
    EXPECT_EQ(result.fixed_n_samples - result.total_samples, 1520u);
}

TEST(MeasurementEngine, CapClampsTheLastBatch) {
    core::AdaptiveConfig adaptive;
    adaptive.min_n = 5;
    adaptive.max_n = 7;
    adaptive.batch = 10;      // would overshoot: must clamp to 2
    adaptive.stability_rounds = 50; // never satisfied: the cap stops everyone
    ScriptedSource source = two_classes();
    const core::EngineResult result = engine_for(adaptive).run(source);
    EXPECT_EQ(result.samples_per_alg, (std::vector<std::size_t>{7, 7, 7}));
    for (std::size_t i = 0; i < source.count(); ++i) {
        EXPECT_EQ(source.draw_sizes_[i], (std::vector<std::size_t>{5, 2}));
    }
    EXPECT_EQ(result.fixed_n_samples - result.total_samples, 0u);
}

TEST(MeasurementEngine, AdaptiveSamplesAreAPrefixOfTheFixedRun) {
    // The determinism contract on a real workload: per-assignment streams
    // make each algorithm's adaptive sample literally the first
    // samples_per_alg[i] values of the fixed-N sample.
    const workloads::TaskChain chain = workloads::paper_rls_chain(10);
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    const auto assignments = workloads::enumerate_assignments(3);
    std::vector<workloads::VariantAssignment> variants;
    for (const auto& a : assignments) variants.emplace_back(a);

    const auto streams = [](const Rng& master) {
        return [&master](std::size_t i) { return master.child(i); };
    };

    Rng fixed_master(99);
    core::SimSampleSource fixed_source(executor, chain, variants,
                                       streams(fixed_master));
    const core::MeasurementSet fixed = core::measure_all(fixed_source, 30);

    core::AdaptiveConfig adaptive;
    adaptive.min_n = 8;
    adaptive.max_n = 30;
    adaptive.batch = 4;
    adaptive.stability_rounds = 2;
    Rng adaptive_master(99);
    core::SimSampleSource adaptive_source(executor, chain, variants,
                                          streams(adaptive_master));
    const core::EngineResult result = engine_for(adaptive).run(adaptive_source);

    ASSERT_EQ(result.measurements.size(), fixed.size());
    for (std::size_t i = 0; i < fixed.size(); ++i) {
        const auto grown = result.measurements.samples(i);
        const auto full = fixed.samples(i);
        ASSERT_LE(grown.size(), full.size()) << fixed.name(i);
        ASSERT_GE(grown.size(), adaptive.min_n) << fixed.name(i);
        for (std::size_t k = 0; k < grown.size(); ++k) {
            EXPECT_EQ(grown[k], full[k]) << fixed.name(i) << " sample " << k;
        }
    }
}

TEST(MeasurementEngine, RunsAreDeterministic) {
    core::AdaptiveConfig adaptive;
    adaptive.min_n = 5;
    adaptive.max_n = 20;
    adaptive.batch = 5;
    adaptive.stability_rounds = 1;
    ScriptedSource a = two_classes();
    ScriptedSource b = two_classes();
    const core::EngineResult ra = engine_for(adaptive).run(a);
    const core::EngineResult rb = engine_for(adaptive).run(b);
    EXPECT_EQ(ra.samples_per_alg, rb.samples_per_alg);
    EXPECT_EQ(ra.rounds, rb.rounds);
    for (std::size_t i = 0; i < ra.measurements.size(); ++i) {
        EXPECT_EQ(std::vector<double>(ra.measurements.samples(i).begin(),
                                      ra.measurements.samples(i).end()),
                  std::vector<double>(rb.measurements.samples(i).begin(),
                                      rb.measurements.samples(i).end()));
    }
}

TEST(MeasurementEngine, RejectsEmptySourceAndBadConfig) {
    ScriptedSource empty({});
    EXPECT_THROW((void)engine_for({}).run(empty), relperf::InvalidArgument);
    core::AdaptiveConfig bad;
    bad.min_n = 0;
    EXPECT_THROW(core::MeasurementEngine(bad, {}, {}),
                 relperf::InvalidArgument);
}
