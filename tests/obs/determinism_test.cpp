//! The non-negotiable obs guarantee: enabling tracing, metrics and the
//! progress sink changes NO output byte. Every CSV surface — measurement,
//! clustering and shard files, fixed-N and adaptive, plain assignments and
//! per-task variants — is byte-compared between an instrumented run and a
//! dark one.
#include "campaign/campaign.hpp"

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "sim/analytic.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

namespace campaign = relperf::campaign;
namespace core = relperf::core;
namespace obs = relperf::obs;
namespace sim = relperf::sim;

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

campaign::CampaignSpec base_spec() {
    campaign::CampaignSpec spec;
    spec.name = "obs-determinism";
    spec.sizes = {32, 64};
    spec.iters = 3;
    spec.platform = "paper-cpu-gpu";
    spec.measurements = 12;
    spec.measurement_seed = 4242;
    spec.clustering_repetitions = 40;
    spec.clustering_seed = 17;
    return spec;
}

/// Bundle of every persisted byte a run produces.
struct RunFiles {
    std::string measurements;
    std::string clustering;
    std::string shard;
};

/// Runs the campaign twice over (run_campaign for the merged analysis,
/// run_shard for a persisted shard file) and returns the CSV bytes. With
/// `instrumented`, the full obs surface is live: tracing, metrics and a
/// progress sink. The shard manifest's provenance block is a function of
/// build + host, not of the obs switches, so it must not differ either.
RunFiles run_everything(const campaign::CampaignSpec& spec, bool instrumented,
                        const std::string& tag) {
    obs::clear_provenance();
    obs::clear_trace();
    obs::registry().reset_values();
    obs::set_tracing_enabled(instrumented);
    obs::set_metrics_enabled(instrumented);
    std::size_t ticks = 0;
    if (instrumented) {
        obs::set_progress_sink(
            [&ticks](const obs::Progress&) { ++ticks; });
    }

    const std::string dir = testing::TempDir();
    RunFiles files;

    const core::AnalysisResult result = campaign::run_campaign(spec, 2, 1);
    const std::string measurements_path =
        dir + "obs_det_" + tag + "_measurements.csv";
    const std::string clustering_path =
        dir + "obs_det_" + tag + "_clusters.csv";
    core::write_measurements_csv(result.measurements, measurements_path);
    core::write_clustering_csv(result.clustering, result.measurements,
                               clustering_path);

    const campaign::ShardResult shard = campaign::run_shard(spec, 0, 2);
    const std::string shard_path = dir + "obs_det_" + tag + "_shard.csv";
    campaign::write_shard_csv(shard, shard_path);

    if (instrumented) {
        // The instrumented run must actually have instrumented something,
        // or the comparison proves nothing.
        EXPECT_GT(obs::trace_event_count(), 0u);
        EXPECT_GT(obs::metrics().samples_total.value(), 0u);
        EXPECT_GT(ticks, 0u);
        obs::set_progress_sink({});
    } else {
        EXPECT_EQ(obs::trace_event_count(), 0u);
        EXPECT_EQ(obs::metrics().samples_total.value(), 0u);
    }
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);

    files.measurements = slurp(measurements_path);
    files.clustering = slurp(clustering_path);
    files.shard = slurp(shard_path);
    return files;
}

void expect_byte_identical(const campaign::CampaignSpec& spec,
                           const std::string& tag) {
    const RunFiles dark = run_everything(spec, false, tag + "_off");
    const RunFiles lit = run_everything(spec, true, tag + "_on");
    EXPECT_EQ(dark.measurements, lit.measurements) << tag << ": measurements";
    EXPECT_EQ(dark.clustering, lit.clustering) << tag << ": clustering";
    EXPECT_EQ(dark.shard, lit.shard) << tag << ": shard";
    EXPECT_FALSE(dark.measurements.empty());
    EXPECT_FALSE(dark.clustering.empty());
    EXPECT_FALSE(dark.shard.empty());
}

class DeterminismTest : public ::testing::Test {
protected:
    void TearDown() override {
        obs::set_tracing_enabled(false);
        obs::set_metrics_enabled(false);
        obs::set_progress_sink({});
        obs::clear_trace();
        obs::clear_provenance();
        obs::registry().reset_values();
    }
};

} // namespace

TEST_F(DeterminismTest, FixedNAssignmentsAreByteIdenticalWithObsOn) {
    expect_byte_identical(base_spec(), "fixed_assign");
}

TEST_F(DeterminismTest, AdaptiveAssignmentsAreByteIdenticalWithObsOn) {
    campaign::CampaignSpec spec = base_spec();
    spec.adaptive_min = 5;
    spec.adaptive_batch = 3;
    spec.adaptive_stability = 2;
    expect_byte_identical(spec, "adaptive_assign");
}

TEST_F(DeterminismTest, FixedNVariantsAreByteIdenticalWithObsOn) {
    campaign::CampaignSpec spec = base_spec();
    spec.variant_backends = {"portable", "reference"};
    expect_byte_identical(spec, "fixed_variants");
}

TEST_F(DeterminismTest, AdaptiveVariantsAreByteIdenticalWithObsOn) {
    campaign::CampaignSpec spec = base_spec();
    spec.variant_backends = {"portable", "reference"};
    spec.adaptive_min = 5;
    spec.adaptive_batch = 3;
    spec.adaptive_stability = 2;
    expect_byte_identical(spec, "adaptive_variants");
}

// The unsharded pipeline surface too: analyze_chain under both switch
// states, compared via the rendered CSVs.
TEST_F(DeterminismTest, AnalyzeChainIsByteIdenticalWithObsOn) {
    const campaign::CampaignSpec spec = base_spec();
    const sim::AnalyticCostModel model(
        campaign::platform_preset(spec.platform));
    const sim::SimulatedExecutor executor(model, sim::NoiseModel{});
    const std::string dir = testing::TempDir();

    std::string bytes[2];
    for (const bool instrumented : {false, true}) {
        obs::set_tracing_enabled(instrumented);
        obs::set_metrics_enabled(instrumented);
        const core::AnalysisResult result =
            core::analyze_chain(executor, spec.chain(), spec.variants(),
                                spec.analysis_config());
        const std::string path =
            dir + (instrumented ? "obs_det_chain_on.csv"
                                : "obs_det_chain_off.csv");
        core::write_measurements_csv(result.measurements, path);
        obs::set_tracing_enabled(false);
        obs::set_metrics_enabled(false);
        bytes[instrumented ? 1 : 0] = slurp(path);
    }
    EXPECT_EQ(bytes[0], bytes[1]);
    EXPECT_FALSE(bytes[0].empty());
}

// Coordinated campaigns add a coordinator loop and two counters on top of
// the engine; the byte guarantee must survive them. run_shard refuses
// coordinated specs, so the shard bytes come from a run_shard of the same
// plan with shard-local stopping.
TEST_F(DeterminismTest, CoordinatedCampaignIsByteIdenticalWithObsOn) {
    campaign::CampaignSpec spec = base_spec();
    spec.adaptive_min = 5;
    spec.adaptive_batch = 3;
    spec.adaptive_stability = 2;
    spec.adaptive_coordinated = true;
    spec.adaptive_confidence = 0.95;

    const std::string dir = testing::TempDir();
    RunFiles files[2];
    for (const bool instrumented : {false, true}) {
        obs::clear_trace();
        obs::registry().reset_values();
        obs::set_tracing_enabled(instrumented);
        obs::set_metrics_enabled(instrumented);

        const campaign::CoordinatedCampaignResult coord =
            campaign::run_coordinated_campaign(spec, 2);
        const std::string tag =
            instrumented ? "coordinated_on" : "coordinated_off";
        const std::string measurements_path =
            dir + "obs_det_" + tag + "_measurements.csv";
        const std::string clustering_path = dir + "obs_det_" + tag +
                                            "_clusters.csv";
        const std::string shard_path = dir + "obs_det_" + tag + "_shard.csv";
        core::write_measurements_csv(coord.analysis.measurements,
                                     measurements_path);
        core::write_clustering_csv(coord.analysis.clustering,
                                   coord.analysis.measurements,
                                   clustering_path);
        campaign::CampaignSpec shard_local = spec;
        shard_local.adaptive_coordinated = false;
        campaign::write_shard_csv(campaign::run_shard(shard_local, 0, 2),
                                  shard_path);

        if (instrumented) {
            EXPECT_GT(obs::metrics().coordination_rounds.value(), 0u);
            EXPECT_EQ(obs::metrics().stopset_broadcast_total.value(),
                      obs::metrics().coordination_rounds.value() * 2);
        } else {
            EXPECT_EQ(obs::metrics().coordination_rounds.value(), 0u);
        }
        obs::set_tracing_enabled(false);
        obs::set_metrics_enabled(false);

        RunFiles& out = files[instrumented ? 1 : 0];
        out.measurements = slurp(measurements_path);
        out.clustering = slurp(clustering_path);
        out.shard = slurp(shard_path);
    }
    EXPECT_EQ(files[0].measurements, files[1].measurements);
    EXPECT_EQ(files[0].clustering, files[1].clustering);
    EXPECT_EQ(files[0].shard, files[1].shard);
    EXPECT_FALSE(files[0].shard.empty());
}
