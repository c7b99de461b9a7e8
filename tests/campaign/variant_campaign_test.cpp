//! The per-task variant axis through the campaign layer: spec round-trips
//! and back-compatible hashing, sharded mixed-backend campaigns merging
//! bit-identically to the single-process path, manifest round-trips, and
//! strict rejection of axis mismatches.

#include "campaign/campaign.hpp"

#include "core/pipeline.hpp"
#include "sim/analytic.hpp"
#include "sim/executor.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace campaign = relperf::campaign;
namespace core = relperf::core;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;

namespace {

campaign::CampaignSpec variant_spec() {
    campaign::CampaignSpec spec;
    spec.name = "variant-campaign";
    spec.sizes = {24, 40};
    spec.iters = 3;
    spec.measurements = 12;
    spec.clustering_repetitions = 30;
    // The always-registered backends, so the campaign runs in every build.
    spec.variant_backends = {"portable", "reference"};
    return spec;
}

/// RAII temp file path.
struct TempFile {
    std::string path;
    explicit TempFile(const std::string& name)
        : path(std::string(::testing::TempDir()) + name) {}
    ~TempFile() { std::remove(path.c_str()); }
};

} // namespace

TEST(VariantCampaignSpec, TextRoundTripCarriesTheAxis) {
    const campaign::CampaignSpec spec = variant_spec();
    const campaign::CampaignSpec loaded =
        campaign::CampaignSpec::parse(spec.to_text());
    EXPECT_EQ(loaded.variant_backends, spec.variant_backends);
    EXPECT_EQ(loaded.hash(), spec.hash());
}

TEST(VariantCampaignSpec, UniformSpecsKeepPreVariantTextAndHash) {
    campaign::CampaignSpec plain = variant_spec();
    plain.variant_backends.clear();
    // No variant_backends key in the serialized text: pre-variant spec files
    // and their hashes are untouched.
    EXPECT_EQ(plain.to_text().find("variant_backends"), std::string::npos);
    const campaign::CampaignSpec pre_variant = campaign::CampaignSpec::parse(
        "campaign = variant-campaign\nsizes = 24,40\niters = 3\n"
        "measurements = 12\nclustering_repetitions = 30\n");
    EXPECT_EQ(plain.hash(), pre_variant.hash());
    // Turning the axis on is a different measurement plan.
    EXPECT_NE(variant_spec().hash(), plain.hash());
    // ...and so is a different axis.
    campaign::CampaignSpec other = variant_spec();
    other.variant_backends = {"portable", "blas"};
    EXPECT_NE(other.hash(), variant_spec().hash());
}

TEST(VariantCampaignSpec, ValidateGuardsTheAxis) {
    campaign::CampaignSpec spec = variant_spec();
    spec.variant_backends = {"portable", "portable"};
    EXPECT_THROW(spec.validate(), relperf::InvalidArgument);
    spec = variant_spec();
    spec.variant_backends = {""};
    EXPECT_THROW(spec.validate(), relperf::InvalidArgument);
    // (2*8)^4 = 65536 is the ceiling; (2*8)^5 is out.
    spec = variant_spec();
    spec.sizes = {8, 8, 8, 8, 8};
    spec.variant_backends = {"a", "b", "c", "d", "e", "f", "g", "h"};
    EXPECT_THROW(spec.validate(), relperf::InvalidArgument);
    // Unregistered names still validate (merge-only hosts).
    spec = variant_spec();
    spec.variant_backends = {"portable", "some-future-backend"};
    EXPECT_NO_THROW(spec.validate());
}

TEST(VariantCampaignSpec, VariantsEnumerateTheAxis) {
    const campaign::CampaignSpec spec = variant_spec();
    const auto variants = spec.variants();
    ASSERT_EQ(variants.size(), 16u); // (2*2)^2
    EXPECT_EQ(variants.front().str(), "D:portable,D:portable");
    EXPECT_EQ(variants.back().str(), "A:reference,A:reference");

    campaign::CampaignSpec plain = spec;
    plain.variant_backends.clear();
    const auto plain_variants = plain.variants();
    ASSERT_EQ(plain_variants.size(), 4u); // 2^2 backend-inherit placements
    EXPECT_EQ(plain_variants.front().alg_name(), "algDD");
    EXPECT_EQ(plain_variants.back().alg_name(), "algAA");
    for (const auto& v : plain_variants) EXPECT_TRUE(v.uniform_inherit());
}

TEST(VariantCampaign, RunShardRejectsUnavailableAxisBackends) {
    campaign::CampaignSpec spec = variant_spec();
    spec.variant_backends = {"portable", "nonesuch-backend"};
    try {
        (void)campaign::run_shard(spec, 0, 1);
        FAIL() << "expected InvalidArgument";
    } catch (const relperf::InvalidArgument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("nonesuch-backend"), std::string::npos) << what;
        EXPECT_NE(what.find("registered"), std::string::npos) << what;
    }
}

TEST(VariantCampaign, ShardedMergeIsBitIdenticalToSingleProcess) {
    const campaign::CampaignSpec spec = variant_spec();

    // Reference: direct single-process measurement of the variant list.
    const workloads::TaskChain chain = spec.chain();
    const sim::AnalyticCostModel model(campaign::platform_preset(spec.platform));
    const sim::SimulatedExecutor executor(model, sim::NoiseModel{});
    relperf::stats::Rng rng(spec.measurement_seed);
    const core::MeasurementSet direct = core::measure_variants(
        executor, chain, spec.variants(), spec.measurements, rng);

    for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                     std::size_t{5}}) {
        const campaign::LocalShardRunner runner(2);
        const std::vector<campaign::ShardResult> results =
            runner.run(spec, shards);
        const core::MeasurementSet merged =
            campaign::merge_shards(spec, results);
        ASSERT_EQ(merged.size(), direct.size());
        for (std::size_t i = 0; i < merged.size(); ++i) {
            EXPECT_EQ(merged.name(i), direct.name(i));
            const auto a = merged.samples(i);
            const auto b = direct.samples(i);
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t j = 0; j < a.size(); ++j) {
                EXPECT_DOUBLE_EQ(a[j], b[j]) << merged.name(i) << " K=" << shards;
            }
        }
    }
}

TEST(VariantCampaign, ShardFileRoundTripKeepsTheAxis) {
    const campaign::CampaignSpec spec = variant_spec();
    const campaign::ShardResult shard = campaign::run_shard(spec, 0, 2);
    EXPECT_EQ(shard.manifest.plan, spec.entries());

    const TempFile file("variant_shard_roundtrip.csv");
    campaign::write_shard_csv(shard, file.path);

    // The axis is recorded in the manifest...
    std::ifstream in(file.path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("# variant_backends = portable,reference"),
              std::string::npos);

    // ...and reads back identically, mergeable with its sibling.
    const campaign::ShardResult loaded = campaign::read_shard_csv(file.path);
    EXPECT_EQ(loaded.manifest.plan, spec.entries());
    const campaign::ShardResult other = campaign::run_shard(spec, 1, 2);
    EXPECT_NO_THROW((void)campaign::merge_shards(spec, {loaded, other}));
}

TEST(VariantCampaign, PlainShardFilesCarryNoAxisLine) {
    campaign::CampaignSpec plain = variant_spec();
    plain.variant_backends.clear();
    const campaign::ShardResult shard = campaign::run_shard(plain, 0, 1);
    const TempFile file("plain_shard_no_axis.csv");
    campaign::write_shard_csv(shard, file.path);
    std::ifstream in(file.path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content.find("variant_backends"), std::string::npos);
    EXPECT_EQ(campaign::read_shard_csv(file.path).manifest.plan,
              plain.entries());
}

TEST(VariantCampaign, MergeRejectsAxisMismatch) {
    const campaign::CampaignSpec spec = variant_spec();
    campaign::ShardResult shard = campaign::run_shard(spec, 0, 1);

    campaign::CampaignSpec other = spec;
    other.variant_backends = {"portable"};
    try {
        (void)campaign::merge_shards(other, {shard});
        FAIL() << "expected Error";
    } catch (const relperf::Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("variant_backends"), std::string::npos) << what;
        EXPECT_NE(what.find("portable,reference"), std::string::npos) << what;
    }

    campaign::CampaignSpec plain = spec;
    plain.variant_backends.clear();
    EXPECT_THROW((void)campaign::merge_shards(plain, {shard}), relperf::Error);
}

TEST(VariantCampaign, RunCampaignClustersTheWholeAxis) {
    const campaign::CampaignSpec spec = variant_spec();
    const core::AnalysisResult result = campaign::run_campaign(spec, 4, 2);
    EXPECT_EQ(result.measurements.size(), 16u);
    EXPECT_TRUE(result.measurements.contains("algD:portable,A:reference"));
    EXPECT_GE(result.clustering.cluster_count(), 1);
}
