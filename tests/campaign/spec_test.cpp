#include "campaign/spec.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>

namespace campaign = relperf::campaign;

namespace {

campaign::CampaignSpec sample_spec() {
    campaign::CampaignSpec spec;
    spec.name = "edge-sweep";
    spec.sizes = {64, 256};
    spec.iters = 5;
    spec.platform = "rpi-server";
    spec.measurements = 12;
    spec.measurement_seed = 77;
    spec.shards = 2;
    spec.clustering_repetitions = 40;
    spec.clustering_seed = 9;
    spec.tie_epsilon = 0.03;
    spec.backend = "reference";
    return spec;
}

} // namespace

TEST(CampaignSpec, TextRoundTripPreservesEveryField) {
    const campaign::CampaignSpec original = sample_spec();
    const campaign::CampaignSpec loaded =
        campaign::CampaignSpec::parse(original.to_text());

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.sizes, original.sizes);
    EXPECT_EQ(loaded.iters, original.iters);
    EXPECT_EQ(loaded.executor, original.executor);
    EXPECT_EQ(loaded.platform, original.platform);
    EXPECT_EQ(loaded.measurements, original.measurements);
    EXPECT_EQ(loaded.measurement_seed, original.measurement_seed);
    EXPECT_EQ(loaded.backend, original.backend);
    EXPECT_EQ(loaded.shards, original.shards);
    EXPECT_EQ(loaded.clustering_repetitions, original.clustering_repetitions);
    EXPECT_EQ(loaded.clustering_seed, original.clustering_seed);
    EXPECT_DOUBLE_EQ(loaded.tie_epsilon, original.tie_epsilon);
    EXPECT_DOUBLE_EQ(loaded.decision_threshold, original.decision_threshold);
    EXPECT_EQ(loaded.hash(), original.hash());
}

TEST(CampaignSpec, ZeroPaddedSeedsAreDecimal) {
    // A hand-edited `010` is seed 10, not octal 8, and it writes back as 10.
    std::string text = sample_spec().to_text();
    for (const std::string key : {"clustering_seed", "measurement_seed"}) {
        const std::size_t at = text.find(key + " = ");
        ASSERT_NE(at, std::string::npos) << key;
        const std::size_t value = at + key.size() + 3;
        text.replace(value, text.find('\n', value) - value, "010");
    }
    const campaign::CampaignSpec loaded = campaign::CampaignSpec::parse(text);
    EXPECT_EQ(loaded.clustering_seed, 10u);
    EXPECT_EQ(loaded.measurement_seed, 10u);
    const campaign::CampaignSpec again =
        campaign::CampaignSpec::parse(loaded.to_text());
    EXPECT_EQ(again.clustering_seed, 10u);
    EXPECT_NE(loaded.to_text().find("clustering_seed = 10\n"), std::string::npos);
}

TEST(CampaignSpec, FileRoundTrip) {
    const std::string path = testing::TempDir() + "relperf_campaign.spec";
    const campaign::CampaignSpec original = sample_spec();
    original.save(path);
    const campaign::CampaignSpec loaded = campaign::CampaignSpec::load(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.hash(), original.hash());
    EXPECT_EQ(loaded.name, original.name);
}

TEST(CampaignSpec, ParseToleratesCommentsBlanksAndCrlf) {
    const std::string text =
        "# a comment\r\n"
        "\r\n"
        "campaign = crlf-campaign\r\n"
        "  sizes =  32 , 64 \r\n"
        "measurements = 5\r\n";
    const campaign::CampaignSpec spec = campaign::CampaignSpec::parse(text);
    EXPECT_EQ(spec.name, "crlf-campaign");
    EXPECT_EQ(spec.sizes, (std::vector<std::size_t>{32, 64}));
    EXPECT_EQ(spec.measurements, 5u);
    EXPECT_EQ(spec.iters, 10u); // unmentioned keys keep their defaults
}

TEST(CampaignSpec, ParseErrorsNameSourceAndLine) {
    const auto expect_error_containing = [](const std::string& text,
                                            const std::string& fragment) {
        try {
            (void)campaign::CampaignSpec::parse(text, "plan.spec");
            FAIL() << "expected an error for: " << text;
        } catch (const relperf::Error& e) {
            EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
                << "message was: " << e.what();
        }
    };
    expect_error_containing("campaign = x\nbogus_key = 1\n",
                            "plan.spec:2: unknown key 'bogus_key'");
    expect_error_containing("no equals sign here\n", "plan.spec:1:");
    expect_error_containing("sizes = 64,junk\n", "plan.spec:1:");
    expect_error_containing("iters = 3\niters = 4\n",
                            "plan.spec:2: duplicate key 'iters'");
    expect_error_containing("executor = quantum\n", "plan.spec:1:");
    // Thread counts past INT_MAX are refused, not wrapped to a small team.
    expect_error_containing("device_threads = 4294967297\n",
                            "plan.spec:1: device_threads");
    expect_error_containing("campaign = x\naccelerator_threads = 4294967297\n",
                            "plan.spec:2: accelerator_threads");
}

TEST(CampaignSpec, ValidateRejectsOutOfRangeFields) {
    campaign::CampaignSpec spec;
    spec.sizes = {};
    EXPECT_THROW(spec.validate(), relperf::InvalidArgument);
    spec = campaign::CampaignSpec{};
    spec.measurements = 0;
    EXPECT_THROW(spec.validate(), relperf::InvalidArgument);
    spec = campaign::CampaignSpec{};
    spec.platform = "not-a-platform";
    EXPECT_THROW(spec.validate(), relperf::InvalidArgument);
    spec = campaign::CampaignSpec{};
    spec.decision_threshold = 0.4;
    EXPECT_THROW(spec.validate(), relperf::InvalidArgument);
    // Round counts past INT64_MAX / 2 are refused by name, not run for ever
    // or wrapped into a signed count.
    const auto cap =
        static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max() / 2);
    for (const std::size_t rounds : {cap + 1, std::numeric_limits<std::size_t>::max()}) {
        spec = campaign::CampaignSpec{};
        spec.bootstrap_rounds = rounds;
        try {
            spec.validate();
            ADD_FAILURE() << "bootstrap_rounds = " << rounds << " was accepted";
        } catch (const relperf::InvalidArgument& e) {
            EXPECT_NE(std::string(e.what()).find("bootstrap_rounds"),
                      std::string::npos)
                << e.what();
        }
    }
    spec = campaign::CampaignSpec{};
    spec.bootstrap_rounds = cap;
    EXPECT_NO_THROW(spec.validate());
}

TEST(CampaignSpec, HashCoversTheMeasurementPlanOnly) {
    const campaign::CampaignSpec base = sample_spec();

    // Shard count and analysis knobs do not change measurements, so shards
    // from differently-split or differently-analyzed campaigns stay
    // mergeable.
    campaign::CampaignSpec variant = base;
    variant.shards = 7;
    variant.clustering_repetitions = 999;
    variant.clustering_seed = 1;
    variant.name = "other-label";
    EXPECT_EQ(variant.hash(), base.hash());

    // Plan fields do.
    variant = base;
    variant.measurement_seed += 1;
    EXPECT_NE(variant.hash(), base.hash());
    variant = base;
    variant.sizes.push_back(512);
    EXPECT_NE(variant.hash(), base.hash());
    variant = base;
    variant.measurements += 1;
    EXPECT_NE(variant.hash(), base.hash());
    variant = base;
    variant.platform = "cpu-only";
    EXPECT_NE(variant.hash(), base.hash());
    variant = base;
    variant.executor = campaign::ExecutorKind::Real;
    EXPECT_NE(variant.hash(), base.hash());
    variant = base;
    variant.backend = "blas";
    EXPECT_NE(variant.hash(), base.hash());
}

TEST(CampaignSpec, BackendDefaultsToPortableAndIsValidated) {
    // Spec files from before the backend axis carry no `backend` key and
    // must keep parsing (and hashing) as the portable plans they were.
    const campaign::CampaignSpec pre_backend =
        campaign::CampaignSpec::parse("campaign = old\nsizes = 8\n");
    EXPECT_EQ(pre_backend.backend, "portable");

    campaign::CampaignSpec explicit_default = pre_backend;
    explicit_default.backend = "portable";
    EXPECT_EQ(pre_backend.hash(), explicit_default.hash());

    campaign::CampaignSpec empty = pre_backend;
    empty.backend = "";
    EXPECT_THROW(empty.validate(), relperf::InvalidArgument);

    // Unregistered backends pass validate() — a collecting host without the
    // backend still merges; run_shard checks availability instead.
    campaign::CampaignSpec vendor = pre_backend;
    vendor.backend = "some-future-backend";
    EXPECT_NO_THROW(vendor.validate());
    EXPECT_NE(vendor.hash(), pre_backend.hash());
}

TEST(CampaignSpec, PlatformPresetsResolve) {
    for (const std::string& name : campaign::platform_preset_names()) {
        EXPECT_NO_THROW((void)campaign::platform_preset(name)) << name;
    }
    EXPECT_THROW((void)campaign::platform_preset("warp-core"),
                 relperf::InvalidArgument);
}

TEST(CampaignSpec, ChainAndAssignmentsFollowTheSpec) {
    const campaign::CampaignSpec spec = sample_spec();
    EXPECT_EQ(spec.chain().size(), 2u);
    EXPECT_EQ(spec.variants().size(), 4u); // 2^2
    const relperf::core::AnalysisConfig config = spec.analysis_config();
    EXPECT_EQ(config.measurements_per_alg, 12u);
    EXPECT_EQ(config.clustering.repetitions, 40u);
    EXPECT_EQ(config.measurement_seed, 77u);
    EXPECT_DOUBLE_EQ(config.comparator.tie_epsilon, 0.03);
}

TEST(CampaignSpec, ErrorPrefixIsAppliedExactlyOnce) {
    try {
        (void)campaign::CampaignSpec::parse("bogus_key = 1\n", "plan.spec");
        FAIL() << "expected an error";
    } catch (const relperf::Error& e) {
        const std::string message = e.what();
        EXPECT_EQ(message.find("plan.spec:1:"),
                  message.rfind("plan.spec:1:"))
            << "prefix duplicated: " << message;
    }
}

TEST(CampaignSpecAdaptive, KeysRoundTripAndOnlyAppearWhenSet) {
    campaign::CampaignSpec fixed = sample_spec();
    EXPECT_FALSE(fixed.adaptive());
    // Fixed-N specs keep their exact pre-adaptive text: no adaptive keys.
    EXPECT_EQ(fixed.to_text().find("adaptive"), std::string::npos);

    campaign::CampaignSpec adaptive = sample_spec();
    adaptive.adaptive_min = 4;
    adaptive.adaptive_batch = 3;
    adaptive.adaptive_stability = 5;
    ASSERT_TRUE(adaptive.adaptive());
    const campaign::CampaignSpec loaded =
        campaign::CampaignSpec::parse(adaptive.to_text());
    EXPECT_EQ(loaded.adaptive_min, 4u);
    EXPECT_EQ(loaded.adaptive_batch, 3u);
    EXPECT_EQ(loaded.adaptive_stability, 5u);
    EXPECT_EQ(loaded.to_text(), adaptive.to_text());
}

TEST(CampaignSpecAdaptive, HashChangesOnlyWhenAdaptiveIsOn) {
    const campaign::CampaignSpec fixed = sample_spec();
    campaign::CampaignSpec adaptive = sample_spec();
    adaptive.adaptive_min = 4;
    EXPECT_NE(fixed.hash(), adaptive.hash());

    // Fixed-N: the adaptive knobs AND the analysis knobs stay excluded (the
    // pre-adaptive hash contract).
    campaign::CampaignSpec reanalyzed = sample_spec();
    reanalyzed.clustering_repetitions += 10;
    reanalyzed.bootstrap_rounds += 10;
    EXPECT_EQ(fixed.hash(), reanalyzed.hash());

    // Adaptive: the stopping rule consults the clusterer, so the analysis
    // knobs become measurement-determining and enter the hash.
    campaign::CampaignSpec adaptive_reanalyzed = adaptive;
    adaptive_reanalyzed.clustering_repetitions += 10;
    EXPECT_NE(adaptive.hash(), adaptive_reanalyzed.hash());
    campaign::CampaignSpec other_batch = adaptive;
    other_batch.adaptive_batch += 1;
    EXPECT_NE(adaptive.hash(), other_batch.hash());
}

TEST(CampaignSpecAdaptive, Validation) {
    campaign::CampaignSpec spec = sample_spec();
    spec.adaptive_min = spec.measurements + 1; // min above the cap
    EXPECT_THROW(spec.validate(), relperf::Error);
    spec = sample_spec();
    spec.adaptive_min = 2;
    spec.adaptive_batch = 0;
    EXPECT_THROW(spec.validate(), relperf::Error);
    spec = sample_spec();
    spec.adaptive_min = 2;
    spec.adaptive_stability = 0;
    EXPECT_THROW(spec.validate(), relperf::Error);
    spec = sample_spec();
    EXPECT_THROW((void)spec.adaptive_config(), relperf::Error);
    spec.adaptive_min = 2;
    EXPECT_NO_THROW(spec.validate());
    const relperf::core::AdaptiveConfig config = spec.adaptive_config();
    EXPECT_EQ(config.min_n, 2u);
    EXPECT_EQ(config.max_n, spec.measurements);
    EXPECT_EQ(config.batch, spec.adaptive_batch);
    EXPECT_EQ(config.stability_rounds, spec.adaptive_stability);
    EXPECT_TRUE(spec.analysis_config().adaptive.has_value());
    EXPECT_FALSE(sample_spec().analysis_config().adaptive.has_value());
}

TEST(CampaignSpecAdaptive, InertKnobsAreRejectedAtParse) {
    // adaptive_batch without adaptive_min_measurements would do nothing and
    // silently vanish on the next round trip — a typo'd plan dies loudly.
    campaign::CampaignSpec spec = sample_spec();
    const std::string text = spec.to_text() + "adaptive_batch = 3\n";
    EXPECT_THROW((void)campaign::CampaignSpec::parse(text), relperf::Error);
    const std::string text2 =
        spec.to_text() + "adaptive_stability_rounds = 3\n";
    EXPECT_THROW((void)campaign::CampaignSpec::parse(text2), relperf::Error);
    // An explicit zero min is the same trap (it would mean fixed-N and drop
    // the other knobs on round trip): rejected, with omission as the answer.
    const std::string zero = spec.to_text() +
                             "adaptive_min_measurements = 0\n"
                             "adaptive_batch = 3\n";
    EXPECT_THROW((void)campaign::CampaignSpec::parse(zero), relperf::Error);
}

TEST(CampaignSpecCoordinated, KeysRoundTripAndOnlyAppearWhenSet) {
    campaign::CampaignSpec adaptive = sample_spec();
    adaptive.adaptive_min = 4;
    // Pre-coordination adaptive specs keep their exact bytes: neither new
    // key is emitted while unset.
    EXPECT_EQ(adaptive.to_text().find("adaptive_coordination"),
              std::string::npos);
    EXPECT_EQ(adaptive.to_text().find("adaptive_confidence"),
              std::string::npos);

    campaign::CampaignSpec coordinated = adaptive;
    coordinated.adaptive_coordinated = true;
    coordinated.adaptive_confidence = 0.95;
    EXPECT_NE(coordinated.to_text().find("adaptive_coordination = coordinated"),
              std::string::npos);
    EXPECT_NE(coordinated.to_text().find("adaptive_confidence = 0.95"),
              std::string::npos);
    const campaign::CampaignSpec loaded =
        campaign::CampaignSpec::parse(coordinated.to_text());
    EXPECT_TRUE(loaded.adaptive_coordinated);
    EXPECT_DOUBLE_EQ(loaded.adaptive_confidence, 0.95);
    EXPECT_EQ(loaded.to_text(), coordinated.to_text());
    EXPECT_EQ(loaded.hash(), coordinated.hash());

    // The explicit default coordination value parses but is never emitted.
    const campaign::CampaignSpec shard_local = campaign::CampaignSpec::parse(
        adaptive.to_text() + "adaptive_coordination = shard-local\n");
    EXPECT_FALSE(shard_local.adaptive_coordinated);
    EXPECT_EQ(shard_local.to_text(), adaptive.to_text());
}

TEST(CampaignSpecCoordinated, NewKeysEnterTheHashOnlyWhenSet) {
    campaign::CampaignSpec adaptive = sample_spec();
    adaptive.adaptive_min = 4;

    // Coordination changes which clustering the stop decisions watch, and
    // the confidence level changes the stopping rule: both are
    // measurement-determining.
    campaign::CampaignSpec coordinated = adaptive;
    coordinated.adaptive_coordinated = true;
    EXPECT_NE(coordinated.hash(), adaptive.hash());
    campaign::CampaignSpec confident = adaptive;
    confident.adaptive_confidence = 0.95;
    EXPECT_NE(confident.hash(), adaptive.hash());
    EXPECT_NE(confident.hash(), coordinated.hash());
    campaign::CampaignSpec other_level = confident;
    other_level.adaptive_confidence = 0.99;
    EXPECT_NE(other_level.hash(), confident.hash());
}

TEST(CampaignSpecCoordinated, Validation) {
    campaign::CampaignSpec spec = sample_spec();
    spec.adaptive_min = 4;
    spec.adaptive_confidence = 0.5; // must be in (0.5, 1)
    EXPECT_THROW(spec.validate(), relperf::Error);
    spec.adaptive_confidence = 1.0;
    EXPECT_THROW(spec.validate(), relperf::Error);
    spec.adaptive_confidence = 0.95;
    EXPECT_NO_THROW(spec.validate());
    EXPECT_DOUBLE_EQ(spec.adaptive_config().confidence, 0.95);
    // Unset confidence keeps the stability rule.
    spec.adaptive_confidence = 0.0;
    EXPECT_EQ(spec.adaptive_config().confidence, 0.0);

    // Both knobs are inert without adaptive_min: rejected, not dropped.
    spec = sample_spec();
    spec.adaptive_coordinated = true;
    EXPECT_THROW(spec.validate(), relperf::Error);
    spec = sample_spec();
    spec.adaptive_confidence = 0.95;
    EXPECT_THROW(spec.validate(), relperf::Error);
}

TEST(CampaignSpecCoordinated, InertKeysAndBadValuesAreRejectedAtParse) {
    const campaign::CampaignSpec spec = sample_spec();
    EXPECT_THROW((void)campaign::CampaignSpec::parse(
                     spec.to_text() + "adaptive_coordination = coordinated\n"),
                 relperf::Error);
    EXPECT_THROW((void)campaign::CampaignSpec::parse(
                     spec.to_text() + "adaptive_confidence = 0.95\n"),
                 relperf::Error);
    campaign::CampaignSpec adaptive = sample_spec();
    adaptive.adaptive_min = 4;
    EXPECT_THROW((void)campaign::CampaignSpec::parse(
                     adaptive.to_text() + "adaptive_coordination = sometimes\n"),
                 relperf::Error);
}
