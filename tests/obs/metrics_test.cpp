//! The metrics registry: counter/histogram semantics, the
//! metrics_enabled() gate, the Prometheus dump format, and — the invariant
//! the CLI savings line rests on — engine-fed counters matching a scripted
//! source's exact sample counts.
#include "obs/metrics.hpp"

#include "cache/cached_campaign.hpp"
#include "cache/result_cache.hpp"
#include "campaign/merge.hpp"
#include "campaign/runner.hpp"
#include "core/measurement_engine.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace obs = relperf::obs;
namespace core = relperf::core;
namespace cache = relperf::cache;
namespace campaign = relperf::campaign;

namespace {

/// Every test starts and ends with obs off and zeroed values, so the suite
/// order cannot leak state between cases.
class MetricsTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::set_metrics_enabled(false);
        obs::set_tracing_enabled(false);
        obs::registry().reset_values();
    }
    void TearDown() override { SetUp(); }
};

/// Deterministic engine input: algorithm i draws values near (i+1) with a
/// small per-sample wobble — well-separated distributions, so membership
/// stabilizes and the engine's early stopping exercises for real. Counts its
/// draws into relperf_samples_total like the executor-backed leaf sources
/// do: the leaves own the "actually drawn" accounting (so cache replays can
/// report zero), and this source stands in for a leaf.
class ScriptedSource final : public core::SampleSource {
public:
    explicit ScriptedSource(std::size_t count) : drawn_(count, 0) {}

    [[nodiscard]] std::size_t count() const override { return drawn_.size(); }
    [[nodiscard]] std::string name(std::size_t index) const override {
        return "alg" + std::to_string(index);
    }
    [[nodiscard]] std::vector<double> draw(std::size_t index,
                                           std::size_t n) override {
        std::vector<double> out;
        out.reserve(n);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t global = drawn_[index] + k;
            out.push_back(static_cast<double>(index + 1) *
                          (1.0 + 0.001 * static_cast<double>(global % 7)));
        }
        drawn_[index] += n;
        obs::metrics().samples_total.inc(n);
        return out;
    }

    [[nodiscard]] std::size_t drawn(std::size_t index) const {
        return drawn_[index];
    }

private:
    std::vector<std::size_t> drawn_;
};

} // namespace

TEST_F(MetricsTest, CounterIsGatedOnMetricsEnabled) {
    obs::Counter& c = obs::registry().counter("relperf_test_gate_total",
                                              "gating test counter");
    c.inc(5);
    EXPECT_EQ(c.value(), 0u) << "disabled counter must not accumulate";
    obs::set_metrics_enabled(true);
    c.inc(5);
    c.inc();
    EXPECT_EQ(c.value(), 6u);
    obs::set_metrics_enabled(false);
    c.inc(100);
    EXPECT_EQ(c.value(), 6u);
}

TEST_F(MetricsTest, HistogramBucketsSumAndCount) {
    obs::Histogram& h = obs::registry().histogram(
        "relperf_test_hist", "histogram test", {1.0, 10.0});
    obs::set_metrics_enabled(true);
    h.observe(0.5);  // <= 1.0
    h.observe(1.0);  // <= 1.0 (bounds are inclusive)
    h.observe(5.0);  // <= 10.0
    h.observe(50.0); // +Inf
    EXPECT_EQ(h.bucket_count(0), 2u);
    EXPECT_EQ(h.bucket_count(1), 1u);
    EXPECT_EQ(h.bucket_count(2), 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 56.5);
}

TEST_F(MetricsTest, RegistryReturnsSameHandleAndRejectsTypeChange) {
    obs::Counter& a = obs::registry().counter("relperf_test_stable_total",
                                              "stable handle");
    obs::Counter& b = obs::registry().counter("relperf_test_stable_total",
                                              "stable handle");
    EXPECT_EQ(&a, &b);
    EXPECT_THROW((void)obs::registry().histogram("relperf_test_stable_total",
                                                 "stable handle", {1.0}),
                 relperf::Error);
    EXPECT_THROW((void)obs::registry().counter("relperf_test_stable_total",
                                               "different help"),
                 relperf::Error);
}

TEST_F(MetricsTest, PrometheusDumpFormat) {
    obs::set_metrics_enabled(true);
    obs::registry().counter("relperf_test_fmt_total", "a counter").inc(3);
    obs::registry()
        .histogram("relperf_test_fmt_seconds", "a histogram", {0.5})
        .observe(0.25);
    const std::string dump = obs::registry().render_prometheus();

    EXPECT_NE(dump.find("# HELP relperf_test_fmt_total a counter\n"),
              std::string::npos);
    EXPECT_NE(dump.find("# TYPE relperf_test_fmt_total counter\n"),
              std::string::npos);
    EXPECT_NE(dump.find("\nrelperf_test_fmt_total 3\n"), std::string::npos);
    EXPECT_NE(dump.find("# TYPE relperf_test_fmt_seconds histogram\n"),
              std::string::npos);
    EXPECT_NE(dump.find("relperf_test_fmt_seconds_bucket{le=\"0.5\"} 1\n"),
              std::string::npos);
    EXPECT_NE(dump.find("relperf_test_fmt_seconds_bucket{le=\"+Inf\"} 1\n"),
              std::string::npos);
    EXPECT_NE(dump.find("relperf_test_fmt_seconds_sum 0.25\n"),
              std::string::npos);
    EXPECT_NE(dump.find("relperf_test_fmt_seconds_count 1\n"),
              std::string::npos);
    // The provenance info metric leads the dump.
    EXPECT_EQ(dump.rfind("# HELP relperf_build_info", 0), 0u);
    EXPECT_NE(dump.find("relperf_build_info{host=\""), std::string::npos);
}

TEST_F(MetricsTest, WellKnownHandlesAreRegistered) {
    const obs::Metrics& m = obs::metrics();
    const std::string dump = obs::registry().render_prometheus();
    EXPECT_NE(dump.find("relperf_samples_total"), std::string::npos);
    EXPECT_NE(dump.find("relperf_samples_fixed_n_total"), std::string::npos);
    EXPECT_NE(dump.find("relperf_adaptive_rounds"), std::string::npos);
    EXPECT_NE(dump.find("relperf_bootstrap_resamples_total"),
              std::string::npos);
    EXPECT_NE(dump.find("relperf_shard_seconds_bucket"), std::string::npos);
    EXPECT_EQ(m.samples_total.value(), 0u);
}

// The cross-check the ISSUE demands: counters fed by the engine equal the
// scripted source's exact draw counts — the CLI savings line and the
// --metrics dump can then never disagree with the samples CSV.
TEST_F(MetricsTest, EngineCountersMatchScriptedSourceExactly) {
    const obs::Metrics& m = obs::metrics();
    obs::set_metrics_enabled(true);

    core::AdaptiveConfig adaptive;
    adaptive.min_n = 6;
    adaptive.max_n = 20;
    adaptive.batch = 4;
    adaptive.stability_rounds = 2;
    core::ClustererConfig clustering;
    clustering.repetitions = 20;
    clustering.seed = 7;
    const core::MeasurementEngine engine(adaptive, {}, clustering);

    ScriptedSource source(4);
    const core::EngineResult result = engine.run(source);

    std::size_t drawn_total = 0;
    for (std::size_t i = 0; i < source.count(); ++i) {
        drawn_total += source.drawn(i);
        EXPECT_EQ(source.drawn(i), result.samples_per_alg[i]) << "alg " << i;
    }
    EXPECT_EQ(result.total_samples, drawn_total);
    EXPECT_EQ(m.samples_total.value(), drawn_total);
    EXPECT_EQ(m.samples_fixed_n_total.value(), result.fixed_n_samples);
    EXPECT_EQ(m.samples_fixed_n_total.value(),
              source.count() * adaptive.max_n);
    EXPECT_EQ(m.adaptive_rounds.value(), result.rounds);
    EXPECT_EQ(m.clusterings_total.value(), result.rounds);
    EXPECT_GT(m.bootstrap_resamples_total.value(), 0u);

    // And the fixed-N entry point: measure_all adds exactly count * n.
    obs::registry().reset_values();
    ScriptedSource fixed_source(3);
    const core::MeasurementSet set = core::measure_all(fixed_source, 9);
    EXPECT_EQ(set.total_samples(), 27u);
    EXPECT_EQ(m.samples_total.value(), 27u);
    EXPECT_EQ(m.samples_fixed_n_total.value(), 0u)
        << "measure_all reports actual cost only; the fixed-N plan counter "
           "belongs to the callers that know the plan";
}

// The plan cost (relperf_samples_fixed_n_total) is what the savings line
// compares actual draws against, so samples_total <= samples_fixed_n_total
// must hold on every path. Fixed-N campaign paths that measure report
// exactly p x N; an exact cache hit measures nothing and reports nothing.
TEST_F(MetricsTest, FixedNCampaignPathsReportThePlanCost) {
    const obs::Metrics& m = obs::metrics();
    obs::set_metrics_enabled(true);

    campaign::CampaignSpec spec;
    spec.name = "gtest-plan-cost";
    spec.sizes = {32, 64};
    spec.iters = 4;
    spec.measurements = 6;
    spec.clustering_repetitions = 5;
    spec.bootstrap_rounds = 10;
    const std::size_t p = spec.variants().size();

    struct Cost {
        std::uint64_t drawn;
        std::uint64_t plan;
    };
    const auto cost_of = [&](const auto& op) {
        obs::registry().reset_values();
        op();
        return Cost{m.samples_total.value(), m.samples_fixed_n_total.value()};
    };
    const auto expect_plan = [](const Cost& cost, std::uint64_t plan,
                                const char* path) {
        EXPECT_LE(cost.drawn, cost.plan) << path;
        EXPECT_EQ(cost.plan, plan) << path;
    };

    expect_plan(cost_of([&] { (void)campaign::run_campaign(spec, 2); }),
                p * spec.measurements, "run_campaign");
    std::size_t shard_algorithms = 0;
    const Cost shard = cost_of([&] {
        shard_algorithms = campaign::run_shard(spec, 0, 2).measurements.size();
    });
    EXPECT_GT(shard_algorithms, 0u);
    expect_plan(shard, shard_algorithms * spec.measurements, "run_shard");

    const std::string dir = testing::TempDir() + "relperf_metrics_plan_cost";
    std::filesystem::remove_all(dir);
    cache::ResultCache result_cache(cache::CacheConfig{dir, 0, 0});
    const auto cached = [&](const campaign::CampaignSpec& plan,
                            cache::HitKind expected) {
        return cost_of([&] {
            EXPECT_EQ(cache::run_campaign_cached(plan, result_cache, 2).cache,
                      expected);
        });
    };
    expect_plan(cached(spec, cache::HitKind::Miss), p * spec.measurements,
                "cache miss");
    expect_plan(cached(spec, cache::HitKind::Exact), 0, "cache exact hit");
    campaign::CampaignSpec bigger = spec;
    bigger.measurements = 9;
    const Cost prefix = cached(bigger, cache::HitKind::Prefix);
    expect_plan(prefix, p * bigger.measurements, "cache prefix extension");
    EXPECT_EQ(prefix.drawn, p * (bigger.measurements - spec.measurements));
    std::filesystem::remove_all(dir);
}
