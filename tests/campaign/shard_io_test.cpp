#include "campaign/shard_io.hpp"

#include "campaign/merge.hpp"
#include "campaign/runner.hpp"
#include "core/io.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace campaign = relperf::campaign;
namespace core = relperf::core;

namespace {

campaign::ShardResult sample_shard() {
    campaign::ShardResult shard;
    shard.manifest.spec_hash = 0xDEADBEEFCAFEF00DULL;
    shard.manifest.shard_index = 1;
    shard.manifest.shard_count = 3;
    shard.manifest.host = "rpi-kitchen";
    shard.manifest.plan = {{"campaign", "edge-sweep"}, {"backend", "blas"}};
    shard.measurements.add("algDA", {0.25, 0.26, 0.24});
    shard.measurements.add("algAA", {0.125, 1.0 / 3.0, 0.1275});
    return shard;
}

std::string write_temp(const std::string& content, const std::string& name) {
    const std::string path = testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

} // namespace

TEST(ShardIo, RoundTripsManifestAndMeasurementsExactly) {
    const campaign::ShardResult original = sample_shard();
    const std::string path = testing::TempDir() + "relperf_shard_rt.csv";
    campaign::write_shard_csv(original, path);
    // The same file after an editor prepended a UTF-8 BOM reads identically.
    std::ostringstream written;
    written << std::ifstream(path).rdbuf();
    const std::string bom_path =
        write_temp("\xEF\xBB\xBF" + written.str(), "relperf_shard_rt_bom.csv");

    for (const std::string& input : {path, bom_path}) {
        SCOPED_TRACE(input);
        const campaign::ShardResult loaded = campaign::read_shard_csv(input);
        EXPECT_EQ(loaded.manifest.spec_hash, original.manifest.spec_hash);
        EXPECT_EQ(loaded.manifest.shard_index, original.manifest.shard_index);
        EXPECT_EQ(loaded.manifest.shard_count, original.manifest.shard_count);
        EXPECT_EQ(loaded.manifest.host, original.manifest.host);
        EXPECT_EQ(loaded.manifest.plan, original.manifest.plan);

        ASSERT_EQ(loaded.measurements.size(), original.measurements.size());
        for (std::size_t i = 0; i < original.measurements.size(); ++i) {
            EXPECT_EQ(loaded.measurements.name(i), original.measurements.name(i));
            const auto got = loaded.measurements.samples(i);
            const auto want = original.measurements.samples(i);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t k = 0; k < want.size(); ++k) {
                // %.17g must reproduce the doubles bit-for-bit (1/3 included).
                EXPECT_EQ(got[k], want[k]);
            }
        }
    }
    std::remove(path.c_str());
    std::remove(bom_path.c_str());
}

TEST(ShardIo, ShardFilesAreReadableAsPlainMeasurementCsv) {
    const campaign::ShardResult original = sample_shard();
    const std::string path = testing::TempDir() + "relperf_shard_plain.csv";
    campaign::write_shard_csv(original, path);
    const core::MeasurementSet set = core::read_measurements_csv(path);
    std::remove(path.c_str());
    EXPECT_EQ(set.size(), 2u);
    EXPECT_EQ(set.name(0), "algDA");
}

TEST(ShardIo, MissingManifestIsRejectedWithTheFileName) {
    const std::string path = write_temp(
        "algorithm,measurement_index,seconds\nalgD,0,1.0\n",
        "relperf_shard_nomanifest.csv");
    try {
        (void)campaign::read_shard_csv(path);
        FAIL() << "expected an error";
    } catch (const relperf::Error& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("spec_hash"), std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(ShardIo, MalformedManifestValuesNameTheLine) {
    const std::string path = write_temp(
        "# spec_hash = zzzz-not-hex\n"
        "# shard_index = 0\n"
        "# shard_count = 2\n"
        "algorithm,measurement_index,seconds\nalgD,0,1.0\n",
        "relperf_shard_badhash.csv");
    try {
        (void)campaign::read_shard_csv(path);
        FAIL() << "expected an error";
    } catch (const relperf::Error& e) {
        EXPECT_NE(std::string(e.what()).find(":1:"), std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(ShardIo, InconsistentShardRefIsRejected) {
    const std::string path = write_temp(
        "# spec_hash = 00000000000000ff\n"
        "# shard_index = 5\n"
        "# shard_count = 2\n"
        "algorithm,measurement_index,seconds\nalgD,0,1.0\n",
        "relperf_shard_badref.csv");
    EXPECT_THROW((void)campaign::read_shard_csv(path), relperf::Error);
    std::remove(path.c_str());
}

TEST(ShardIo, ExpandsCommaListsAndSortsThem) {
    const std::vector<std::string> paths =
        campaign::expand_shard_pattern("b.csv, a.csv ,c.csv");
    EXPECT_EQ(paths, (std::vector<std::string>{"a.csv", "b.csv", "c.csv"}));
    EXPECT_THROW((void)campaign::expand_shard_pattern("  "), relperf::Error);
}

TEST(ShardIo, ExpandsGlobPatterns) {
    const std::string dir = testing::TempDir();
    const std::string a = write_temp("x", "relperf_glob_s0.csv");
    const std::string b = write_temp("x", "relperf_glob_s1.csv");
    const std::vector<std::string> paths =
        campaign::expand_shard_pattern(dir + "relperf_glob_s*.csv");
    EXPECT_EQ(paths.size(), 2u);
    EXPECT_NE(paths[0], paths[1]);
    EXPECT_THROW(
        (void)campaign::expand_shard_pattern(dir + "relperf_glob_none*.csv"),
        relperf::Error);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(ShardIo, HostNameIsNonEmpty) {
    EXPECT_FALSE(campaign::host_name().empty());
}

TEST(ShardIo, PreBackendShardFilesReadAsPortable) {
    // Files written before the backend axis have no `# backend` line; they
    // were measured on the (only) portable kernels, and must merge as such.
    campaign::CampaignSpec spec;
    spec.sizes = {32};
    spec.iters = 2;
    spec.measurements = 2;
    const std::string path = write_temp(
        relperf::str::format("# campaign = pre-backend\n"
                             "# spec_hash = %016llx\n"
                             "# shard_index = 0\n"
                             "# shard_count = 1\n"
                             "algorithm,measurement_index,seconds\n"
                             "algD,0,1.0\nalgD,1,1.5\nalgA,0,2.0\nalgA,1,2.5\n",
                             static_cast<unsigned long long>(spec.hash())),
        "relperf_shard_prebackend.csv");
    const campaign::ShardResult loaded = campaign::read_shard_csv(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.manifest.plan,
              (std::vector<campaign::SpecEntry>{{"campaign", "pre-backend"}}));
    EXPECT_NO_THROW((void)campaign::merge_shards(spec, {loaded}));
    campaign::CampaignSpec reference = spec;
    reference.backend = "reference";
    try {
        (void)campaign::merge_shards(reference, {loaded});
        FAIL() << "expected the missing backend to read as portable";
    } catch (const relperf::Error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "backend = portable (this spec: reference)"),
                  std::string::npos)
            << e.what();
    }
}

namespace {

campaign::ShardResult adaptive_shard() {
    campaign::ShardResult shard = sample_shard();
    shard.manifest.plan.insert(shard.manifest.plan.end(),
                               {{"adaptive_min_measurements", "2"},
                                {"adaptive_batch", "1"},
                                {"adaptive_stability_rounds", "2"}});
    shard.manifest.samples_per_algorithm = {3, 3};
    return shard;
}

} // namespace

TEST(ShardIoAdaptive, ManifestRoundTripsAndFixedFilesStayClean) {
    const campaign::ShardResult original = adaptive_shard();
    const std::string path = testing::TempDir() + "relperf_shard_adaptive.csv";
    campaign::write_shard_csv(original, path);
    const campaign::ShardResult loaded = campaign::read_shard_csv(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.manifest.plan, original.manifest.plan);
    EXPECT_EQ(loaded.manifest.samples_per_algorithm,
              (std::vector<std::size_t>{3, 3}));

    // A fixed-N shard keeps the exact pre-adaptive file form: no adaptive
    // manifest lines at all, and no adaptive entry in the plan.
    const std::string fixed_path = testing::TempDir() + "relperf_shard_fixed.csv";
    campaign::write_shard_csv(sample_shard(), fixed_path);
    std::ifstream in(fixed_path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content.find("adaptive"), std::string::npos);
    EXPECT_EQ(content.find("samples_per_algorithm"), std::string::npos);
    const campaign::ShardResult fixed = campaign::read_shard_csv(fixed_path);
    std::remove(fixed_path.c_str());
    EXPECT_EQ(fixed.manifest.plan, sample_shard().manifest.plan);
    EXPECT_TRUE(fixed.manifest.samples_per_algorithm.empty());
}

TEST(ShardIoAdaptive, DeclaredCountsAreCheckedAgainstTheRows) {
    // Truncation/tampering canary: the manifest's per-algorithm counts must
    // match the measurement rows that follow.
    const campaign::ShardResult original = adaptive_shard();
    const std::string path = testing::TempDir() + "relperf_shard_tamper.csv";
    campaign::write_shard_csv(original, path);
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();

    // Drop the last measurement row (simulated truncation).
    std::string truncated = content;
    truncated.erase(truncated.find_last_of('\n', truncated.size() - 2) + 1);
    const std::string tpath = write_temp(truncated, "relperf_trunc.csv");
    EXPECT_THROW((void)campaign::read_shard_csv(tpath), relperf::Error);
    std::remove(tpath.c_str());

    // Wrong declared count for the right number of rows.
    std::string edited = content;
    const std::string decl = "# samples_per_algorithm = 3,3";
    edited.replace(edited.find(decl), decl.size(),
                   "# samples_per_algorithm = 3,4");
    const std::string epath = write_temp(edited, "relperf_edit.csv");
    EXPECT_THROW((void)campaign::read_shard_csv(epath), relperf::Error);
    std::remove(epath.c_str());

    // Wrong list length.
    std::string shorter = content;
    shorter.replace(shorter.find(decl), decl.size(),
                    "# samples_per_algorithm = 6");
    const std::string spath = write_temp(shorter, "relperf_short.csv");
    EXPECT_THROW((void)campaign::read_shard_csv(spath), relperf::Error);
    std::remove(spath.c_str());

    std::remove(path.c_str());
}

TEST(ShardIoAdaptive, WriterRejectsDivergentDeclaredCounts) {
    // The manifest's declared counts are cross-checked on the write side
    // too: persisting counts that disagree with the rows would write a lie
    // the read-side canary then blames on file corruption.
    campaign::ShardResult shard = adaptive_shard();
    shard.manifest.samples_per_algorithm = {3, 4}; // algAA really has 3
    const std::string path = testing::TempDir() + "relperf_divergent.csv";
    EXPECT_THROW(campaign::write_shard_csv(shard, path), relperf::Error);
    shard.manifest.samples_per_algorithm = {3};
    EXPECT_THROW(campaign::write_shard_csv(shard, path), relperf::Error);
    std::remove(path.c_str());
}

TEST(ShardIoCoordinated, ManifestRoundTripsAndPlainAdaptiveFilesStayClean) {
    campaign::ShardResult original = adaptive_shard();
    original.manifest.plan.insert(original.manifest.plan.end(),
                                  {{"adaptive_coordination", "coordinated"},
                                   {"adaptive_confidence", "0.95"}});
    original.manifest.stopset_rounds = {0, 1, 2};
    const std::string path =
        testing::TempDir() + "relperf_shard_coordinated.csv";
    campaign::write_shard_csv(original, path);
    const campaign::ShardResult loaded = campaign::read_shard_csv(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.manifest.plan, original.manifest.plan);
    EXPECT_EQ(loaded.manifest.stopset_rounds,
              (std::vector<std::size_t>{0, 1, 2}));

    // A shard-local adaptive shard keeps the exact pre-coordination file
    // form: no coordination or confidence entry and no stop-set history.
    const std::string plain_path =
        testing::TempDir() + "relperf_shard_plain_adaptive.csv";
    campaign::write_shard_csv(adaptive_shard(), plain_path);
    std::ifstream in(plain_path);
    const std::string content((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(content.find("coordination"), std::string::npos);
    EXPECT_EQ(content.find("confidence"), std::string::npos);
    EXPECT_EQ(content.find("stopset"), std::string::npos);
    const campaign::ShardResult plain = campaign::read_shard_csv(plain_path);
    std::remove(plain_path.c_str());
    EXPECT_EQ(plain.manifest.plan, adaptive_shard().manifest.plan);
    EXPECT_TRUE(plain.manifest.stopset_rounds.empty());
}

TEST(ShardIoCoordinated, BadCoordinationValueNamesTheLine) {
    campaign::ShardResult shard = adaptive_shard();
    shard.manifest.plan.emplace_back("adaptive_coordination", "coordinated");
    const std::string path = testing::TempDir() + "relperf_shard_badcoord.csv";
    campaign::write_shard_csv(shard, path);
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    const std::string line = "# adaptive_coordination = coordinated";
    ASSERT_NE(content.find(line), std::string::npos);
    content.replace(content.find(line), line.size(),
                    "# adaptive_coordination = telepathic");
    const std::string bad = write_temp(content, "relperf_badcoord2.csv");
    EXPECT_THROW((void)campaign::read_shard_csv(bad), relperf::Error);
    std::remove(bad.c_str());
    std::remove(path.c_str());
}

TEST(ShardIo, ManifestCarriesTheSpecEntries) {
    campaign::CampaignSpec spec;
    spec.name = "entries";
    spec.sizes = {32, 64};
    spec.iters = 2;
    spec.measurements = 4;
    spec.adaptive_min = 2;
    spec.adaptive_batch = 1;
    spec.adaptive_confidence = 0.9;
    const campaign::ShardResult shard = campaign::run_shard(spec, 1, 2);
    EXPECT_EQ(shard.manifest.plan, spec.entries());

    const std::string path = testing::TempDir() + "relperf_shard_entries.csv";
    campaign::write_shard_csv(shard, path);
    EXPECT_EQ(campaign::read_shard_csv(path).manifest.plan, spec.entries());

    // A malformed plan value is a file:line error, as in a spec file.
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    std::remove(path.c_str());
    const std::string line = "# iters = 2\n";
    const std::size_t at = content.find(line);
    ASSERT_NE(at, std::string::npos);
    content.replace(at, line.size(), "# iters = two\n");
    const std::size_t line_number =
        1 + static_cast<std::size_t>(
                std::count(content.begin(), content.begin() + at, '\n'));
    const std::string bad = write_temp(content, "relperf_shard_bad_entry.csv");
    try {
        (void)campaign::read_shard_csv(bad);
        FAIL() << "expected a malformed plan value to be rejected";
    } catch (const relperf::Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(bad + ":" + std::to_string(line_number) + ":"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("iters"), std::string::npos) << what;
    }
    std::remove(bad.c_str());
}

namespace {

/// The message merge_shards refuses `shard` with under `spec` ("" if none).
std::string merge_error(const campaign::CampaignSpec& spec,
                        const campaign::ShardResult& shard) {
    try {
        (void)campaign::merge_shards(spec, {shard});
    } catch (const relperf::Error& e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(ShardIo, ParentFormatShardsStillMerge) {
    // The manifests of the previous file form, byte for byte: they recorded
    // the label, the backend and the optional axes of the plan, not the
    // whole plan.
    campaign::CampaignSpec fixed;
    fixed.name = "parent-form";
    fixed.sizes = {32};
    fixed.iters = 2;
    fixed.measurements = 3;
    campaign::CampaignSpec adaptive = fixed;
    adaptive.adaptive_min = 2;
    adaptive.adaptive_batch = 1;
    // The hashes these files were written under: hash() must not move.
    ASSERT_EQ(fixed.hash(), 0x0afb1d6996e5f6d5ULL);
    ASSERT_EQ(adaptive.hash(), 0xcfee6604b9bd76e9ULL);
    const std::string fixed_path = write_temp(
        "# relperf-shard v1\n"
        "# campaign = parent-form\n"
        "# spec_hash = 0afb1d6996e5f6d5\n"
        "# shard_index = 0\n"
        "# shard_count = 1\n"
        "# host = rpi-kitchen\n"
        "# provenance = host=rpi-kitchen;build=Release;openmp=on\n"
        "# backend = portable\n"
        "algorithm,measurement_index,seconds\n"
        "algD,0,0.25\nalgD,1,0.5\nalgD,2,0.75\n"
        "algA,0,0.125\nalgA,1,0.25\nalgA,2,0.375\n",
        "relperf_shard_parent_fixed.csv");
    const std::string adaptive_path = write_temp(
        "# relperf-shard v1\n"
        "# campaign = parent-form\n"
        "# spec_hash = cfee6604b9bd76e9\n"
        "# shard_index = 0\n"
        "# shard_count = 1\n"
        "# host = rpi-kitchen\n"
        "# backend = portable\n"
        "# adaptive_min_measurements = 2\n"
        "# adaptive_batch = 1\n"
        "# adaptive_stability_rounds = 2\n"
        "# samples_per_algorithm = 2,3\n"
        "algorithm,measurement_index,seconds\n"
        "algD,0,0.25\nalgD,1,0.5\n"
        "algA,0,0.125\nalgA,1,0.25\nalgA,2,0.375\n",
        "relperf_shard_parent_adaptive.csv");
    const campaign::ShardResult f = campaign::read_shard_csv(fixed_path);
    const campaign::ShardResult a = campaign::read_shard_csv(adaptive_path);
    std::remove(fixed_path.c_str());
    std::remove(adaptive_path.c_str());

    EXPECT_EQ(merge_error(fixed, f), "");
    EXPECT_EQ(merge_error(adaptive, a), "");

    // A mismatched backend or adaptive plan is refused by name.
    campaign::CampaignSpec reference = fixed;
    reference.backend = "reference";
    EXPECT_NE(merge_error(reference, f)
                  .find("backend = portable (this spec: reference)"),
              std::string::npos);
    EXPECT_NE(merge_error(fixed, a)
                  .find("adaptive_min_measurements = 2 (this spec: absent)"),
              std::string::npos);
    EXPECT_NE(merge_error(adaptive, f)
                  .find("adaptive_min_measurements = absent (this spec: 2)"),
              std::string::npos);
    campaign::CampaignSpec batch = adaptive;
    batch.adaptive_batch = 2;
    EXPECT_NE(merge_error(batch, a).find("adaptive_batch = 1 (this spec: 2)"),
              std::string::npos);
}
