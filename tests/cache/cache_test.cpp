//! The result cache's contract, end to end:
//!
//!  * exact hit — zero executor draws and, from the stored rank tally, zero
//!    comparisons, field-for-field equal to the cold run across shard and
//!    worker counts (the entry is keyed by the plan, not the split);
//!  * the tally — keyed by the analysis knobs and bound to the payload: a
//!    new knob, an absent, damaged, stale or mutated tally re-clusters the
//!    same bits and is rewritten, never served wrong; evicted and counted
//!    with its entry;
//!  * prefix extension — bit-identical to a cold full run (fixed-N,
//!    single-shard adaptive and coordinated adaptive), only the budget delta
//!    drawn, and the entry upgraded in place;
//!  * the CachedSampleSource replay/skip stream algebra;
//!  * cacheability (shard-local adaptive with K > 1 bypasses);
//!  * failure modes: truncated payloads, tampered manifests, dropped rows,
//!    garbage sidecars, unusable directories, leftover temp files — all
//!    degrade to a miss (and self-repair on the next store), never an error;
//!  * deterministic logical-clock LRU eviction.

#include "cache/cached_campaign.hpp"

#include "cache/cached_source.hpp"
#include "cache/result_cache.hpp"
#include "campaign/campaign.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "stats/rng.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace cache = relperf::cache;
namespace campaign = relperf::campaign;
namespace core = relperf::core;
namespace obs = relperf::obs;
namespace fs = std::filesystem;

namespace {

campaign::CampaignSpec small_spec() {
    campaign::CampaignSpec spec;
    spec.name = "gtest-cache";
    spec.sizes = {32, 64, 128};
    spec.iters = 4;
    spec.platform = "paper-cpu-gpu";
    spec.measurements = 15;
    spec.measurement_seed = 1234;
    spec.clustering_repetitions = 50;
    spec.clustering_seed = 99;
    return spec;
}

campaign::CampaignSpec adaptive_spec() {
    campaign::CampaignSpec spec = small_spec();
    spec.measurements = 20;
    spec.adaptive_min = 6;
    spec.adaptive_batch = 4;
    spec.adaptive_stability = 2;
    return spec;
}

campaign::CampaignSpec coordinated_spec() {
    campaign::CampaignSpec spec = adaptive_spec();
    spec.adaptive_coordinated = true;
    return spec;
}

void expect_sets_identical(const core::MeasurementSet& a,
                           const core::MeasurementSet& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.name(i), b.name(i));
        const auto sa = a.samples(i);
        const auto sb = b.samples(i);
        ASSERT_EQ(sa.size(), sb.size()) << a.name(i);
        for (std::size_t k = 0; k < sa.size(); ++k) {
            EXPECT_EQ(sa[k], sb[k]) << a.name(i) << " sample " << k;
        }
    }
}

void expect_clusterings_identical(const core::Clustering& a,
                                  const core::Clustering& b) {
    ASSERT_EQ(a.cluster_count(), b.cluster_count());
    ASSERT_EQ(a.final_assignment.size(), b.final_assignment.size());
    for (std::size_t alg = 0; alg < a.final_assignment.size(); ++alg) {
        EXPECT_EQ(a.final_assignment[alg].rank, b.final_assignment[alg].rank)
            << "alg " << alg;
        EXPECT_DOUBLE_EQ(a.final_assignment[alg].score,
                         b.final_assignment[alg].score)
            << "alg " << alg;
    }
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

void write_file(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << path;
    out << content;
}

/// Replaces the checksum line of a tally with one over its (edited) body, so
/// a test reaches the checks behind the checksum.
std::string reseal(const std::string& tally) {
    const std::size_t at = tally.rfind("checksum = ");
    const std::string body = tally.substr(0, at);
    return body + relperf::str::format(
                      "checksum = %016llx\n",
                      static_cast<unsigned long long>(
                          relperf::support::fnv1a(body)));
}

/// The `tally` arg of the last buffered cache.lookup span (JSON-quoted).
std::string last_lookup_tally_arg() {
    std::string tally;
    for (const obs::TraceEvent& e : obs::trace_events()) {
        if (e.name != "cache.lookup") continue;
        tally.clear();
        for (const auto& [key, value] : e.args) {
            if (key == "tally") tally = value;
        }
    }
    return tally;
}

/// Fresh cache directory per test, obs off and zeroed around each case.
class CacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::set_metrics_enabled(false);
        obs::set_tracing_enabled(false);
        obs::registry().reset_values();
        dir_ = testing::TempDir() + "relperf_cache_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
        fs::remove_all(dir_);
    }
    void TearDown() override {
        fs::remove_all(dir_);
        obs::set_metrics_enabled(false);
        obs::registry().reset_values();
    }

    [[nodiscard]] cache::ResultCache make_cache() const {
        return cache::ResultCache(cache::CacheConfig{dir_, 0, 0});
    }

    /// The single on-disk file with `extension` ("csv"/"tally"/"meta") — entries are
    /// content-addressed, so tests locate them by suffix, not by hash.
    [[nodiscard]] std::string only_file(const std::string& extension) const {
        std::vector<std::string> matches;
        for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
            if (entry.path().extension() == "." + extension) {
                matches.push_back(entry.path().string());
            }
        }
        EXPECT_EQ(matches.size(), 1u) << "*." << extension << " in " << dir_;
        return matches.empty() ? std::string() : matches.front();
    }

    std::string dir_;
};

} // namespace

TEST_F(CacheTest, ExactHitServesTheStoredClustering) {
    const campaign::CampaignSpec spec = small_spec();
    for (const std::size_t workers : {1u, 4u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        fs::remove_all(dir_);
        obs::set_metrics_enabled(false);
        cache::ResultCache result_cache = make_cache();

        const cache::CachedRunResult cold =
            cache::run_campaign_cached(spec, result_cache, 2, workers);
        EXPECT_EQ(cold.cache, cache::HitKind::Miss);
        EXPECT_FALSE(cold.bypassed);
        EXPECT_FALSE(cold.stored_clustering);
        EXPECT_EQ(cold.samples_from_cache, 0u);
        EXPECT_EQ(result_cache.stats().entries, 1u);

        obs::set_metrics_enabled(true);
        obs::registry().reset_values();
        const obs::Metrics& m = obs::metrics();
        // Served across a different shard split: the entry is keyed by the
        // plan hash, which does not include K.
        const cache::CachedRunResult warm =
            cache::run_campaign_cached(spec, result_cache, 3, workers);
        EXPECT_EQ(warm.cache, cache::HitKind::Exact);
        EXPECT_TRUE(warm.stored_clustering);
        EXPECT_EQ(m.samples_total.value(), 0u) << "an exact hit must not draw";
        EXPECT_EQ(m.executions_total.value(), 0u);
        EXPECT_EQ(m.clusterings_total.value(), 0u)
            << "a stored tally must not re-cluster";
        EXPECT_EQ(m.bootstrap_resamples_total.value(), 0u);
        EXPECT_EQ(m.cache_hits_total.value(), 1u);
        EXPECT_EQ(warm.samples_from_cache, warm.analysis.total_samples);
        EXPECT_EQ(m.cache_extension_samples_saved_total.value(),
                  warm.samples_from_cache);

        expect_sets_identical(warm.analysis.measurements,
                              cold.analysis.measurements);
        EXPECT_EQ(warm.analysis.clustering, cold.analysis.clustering);
        EXPECT_EQ(warm.analysis.samples_per_alg, cold.analysis.samples_per_alg);
        EXPECT_EQ(warm.analysis.total_samples, cold.analysis.total_samples);
        EXPECT_EQ(warm.analysis.fixed_n_samples,
                  cold.analysis.fixed_n_samples);
    }
}

TEST_F(CacheTest, NewAnalysisKnobReclustersOnceThenServes) {
    // A fixed-N plan hash leaves the analysis knobs out, so each change
    // below is still an exact hit of the same entry. The tally's analysis
    // key differs: one re-clustering equal to a cold run under the new
    // knobs, then the rewritten tally serves the repeat.
    campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache, 1);
    const std::uint64_t plan = spec.hash();

    const std::vector<std::pair<const char*,
                                std::function<void(campaign::CampaignSpec&)>>>
        knobs = {
            {"clustering_repetitions",
             [](campaign::CampaignSpec& s) { s.clustering_repetitions = 37; }},
            {"clustering_seed",
             [](campaign::CampaignSpec& s) { s.clustering_seed += 1; }},
            {"bootstrap_rounds",
             [](campaign::CampaignSpec& s) { s.bootstrap_rounds = 60; }},
            {"tie_epsilon",
             [](campaign::CampaignSpec& s) { s.tie_epsilon = 0.05; }},
            {"decision_threshold",
             [](campaign::CampaignSpec& s) { s.decision_threshold = 0.8; }},
        };
    obs::set_metrics_enabled(true);
    const obs::Metrics& m = obs::metrics();
    for (const auto& [knob, change] : knobs) {
        SCOPED_TRACE(knob);
        change(spec);
        ASSERT_EQ(spec.hash(), plan);
        const core::AnalysisResult cold = campaign::run_campaign(spec, 1);

        obs::registry().reset_values();
        testing::internal::CaptureStderr();
        const cache::CachedRunResult first =
            cache::run_campaign_cached(spec, result_cache, 1);
        const std::string warnings = testing::internal::GetCapturedStderr();
        EXPECT_EQ(first.cache, cache::HitKind::Exact);
        EXPECT_FALSE(first.stored_clustering);
        EXPECT_NE(warnings.find("re-clustering"), std::string::npos);
        EXPECT_EQ(m.clusterings_total.value(), 1u);
        EXPECT_EQ(m.samples_total.value(), 0u);
        EXPECT_EQ(first.analysis.clustering, cold.clustering);

        obs::registry().reset_values();
        const cache::CachedRunResult repeat =
            cache::run_campaign_cached(spec, result_cache, 1);
        EXPECT_EQ(repeat.cache, cache::HitKind::Exact);
        EXPECT_TRUE(repeat.stored_clustering);
        EXPECT_EQ(m.clusterings_total.value(), 0u);
        EXPECT_EQ(m.bootstrap_resamples_total.value(), 0u);
        EXPECT_EQ(repeat.analysis.clustering, cold.clustering);
    }
}

TEST_F(CacheTest, BadTallyWarnsReclustersIdenticallyAndIsRewritten) {
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    const cache::CachedRunResult cold =
        cache::run_campaign_cached(spec, result_cache, 1);
    const std::string path = only_file("tally");
    const std::string pristine = read_file(path);

    const std::string version =
        relperf::str::format("version=%u;", core::kAnalysisVersion);
    const std::size_t version_at = pristine.find(version);
    ASSERT_NE(version_at, std::string::npos);
    std::string other_version = pristine;
    other_version.replace(
        version_at, version.size(),
        relperf::str::format("version=%u;", core::kAnalysisVersion + 1));
    const std::size_t digest_at =
        pristine.find("measurements = ") + std::string("measurements = ").size();
    std::string other_digest = pristine;
    other_digest[digest_at] = other_digest[digest_at] == '0' ? '1' : '0';

    const std::vector<std::pair<const char*, std::string>> damage = {
        {"absent", ""},
        {"garbage", "not a tally at all\n"},
        {"truncated", pristine.substr(0, pristine.size() / 2)},
        {"wrong version", reseal(other_version)},
        {"wrong measurement digest", reseal(other_digest)},
    };
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(true);
    for (const auto& [name, content] : damage) {
        SCOPED_TRACE(name);
        if (std::string(name) == "absent") {
            fs::remove(path);
        } else {
            write_file(path, content);
        }
        obs::registry().reset_values();
        obs::clear_trace();
        testing::internal::CaptureStderr();
        const cache::CachedRunResult run =
            cache::run_campaign_cached(spec, result_cache, 1);
        const std::string warnings = testing::internal::GetCapturedStderr();
        EXPECT_NE(warnings.find("warning: result cache:"), std::string::npos);
        EXPECT_EQ(run.cache, cache::HitKind::Exact);
        EXPECT_FALSE(run.stored_clustering);
        EXPECT_EQ(obs::metrics().clusterings_total.value(), 1u);
        EXPECT_EQ(run.analysis.clustering, cold.analysis.clustering);
        const char* state = std::string(name) == "absent" ? "\"absent\""
                            : std::string(name).rfind("wrong", 0) == 0
                                ? "\"stale\""
                                : "\"invalid\"";
        EXPECT_EQ(last_lookup_tally_arg(), state);
        EXPECT_EQ(read_file(path), pristine) << "the repair rewrites the tally";
    }
    obs::clear_trace();
    (void)result_cache.lookup(spec);
    EXPECT_EQ(last_lookup_tally_arg(), "\"served\"");
    obs::set_tracing_enabled(false);
    obs::clear_trace();
}

TEST_F(CacheTest, TallyParserSurvivesSeededMutations) {
    // A deterministic mutation fuzzer over a real tally file. Whatever the
    // bytes, lookup() must not throw, and the exact tier must yield the
    // cold clustering: served only when the file is intact, re-clustered
    // otherwise. The resealed mutations pass the checksum, so they reach
    // the parser and build_clustering's validation behind it.
    campaign::CampaignSpec spec = small_spec();
    spec.clustering_repetitions = 12;
    spec.bootstrap_rounds = 20;
    cache::ResultCache result_cache = make_cache();
    const cache::CachedRunResult cold =
        cache::run_campaign_cached(spec, result_cache, 1);
    const std::string path = only_file("tally");
    const std::string pristine = read_file(path);
    const std::vector<std::string> lines = relperf::str::split(pristine, '\n');
    ASSERT_GE(lines.size(), 6u);
    const std::size_t line_count = lines.size() - 1; // trailing ""
    const auto join = [](const std::vector<std::string>& parts) {
        std::string out;
        for (const std::string& line : parts) out += line + '\n';
        return out;
    };

    std::vector<std::string> mutants;
    relperf::stats::Rng rng(20261017);
    for (int i = 0; i < 150; ++i) { // byte flips
        std::string m = pristine;
        const std::size_t at = rng.uniform_index(m.size());
        m[at] = static_cast<char>(m[at] ^ (1u << rng.uniform_index(8)));
        mutants.push_back(std::move(m));
    }
    for (std::size_t cut = 0; cut <= pristine.size(); ++cut) { // truncation
        mutants.push_back(pristine.substr(0, cut));
    }
    for (std::size_t i = 0; i < line_count; ++i) { // duplicated lines
        std::vector<std::string> m(lines.begin(), lines.end() - 1);
        m.insert(m.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
        mutants.push_back(join(m));
    }
    for (std::size_t i = 0; i + 1 < line_count; ++i) { // reordered lines
        std::vector<std::string> m(lines.begin(), lines.end() - 1);
        std::swap(m[i], m[i + 1]);
        mutants.push_back(join(m));
    }
    {
        std::string crlf;
        for (const char c : pristine) {
            if (c == '\n') crlf += '\r';
            crlf += c;
        }
        mutants.push_back(crlf);
        mutants.push_back("\xEF\xBB\xBF" + pristine);
    }
    for (const char* number : {"99999999999999999999", "-1", "-12"}) {
        for (int i = 0; i < 20; ++i) { // 20-digit and negative numbers
            const std::size_t colon =
                pristine.find(':', rng.uniform_index(pristine.size()));
            if (colon == std::string::npos) continue;
            std::string m = pristine;
            m.replace(colon + 1, m.find_first_not_of("0123456789", colon + 1) -
                                     (colon + 1),
                      number);
            mutants.push_back(m);
        }
    }
    const std::size_t raw_count = mutants.size();
    // Resealed: structurally broken bodies behind a valid checksum.
    const std::string body = pristine.substr(0, pristine.rfind("checksum = "));
    const std::size_t first_row = body.find("row = ");
    const std::size_t second_row = body.find("row = ", first_row + 1);
    for (const std::string& b : {
             body + "row = 1:12\n",                          // extra row
             body.substr(0, first_row) + body.substr(second_row), // one short
             body + "analysis = duplicate\n",                // duplicate key
             body.substr(0, first_row) + "row = 0:12\n" +
                 body.substr(second_row),                    // rank 0
             body.substr(0, first_row) + "row = 9:12\n" +
                 body.substr(second_row),                    // rank > p
             body.substr(0, first_row) + "row = 2:6 1:6\n" +
                 body.substr(second_row),                    // unsorted
             body.substr(0, first_row) + "row = 1:11\n" +
                 body.substr(second_row),                    // sum != Rep
             body.substr(0, first_row) + "row = 1:12 2:0\n" +
                 body.substr(second_row),                    // zero count
             body.substr(0, first_row) + "row =\n" +
                 body.substr(second_row),                    // empty row
             body.substr(0, first_row) + "row = 1:-12\n" +
                 body.substr(second_row),                    // negative
             body.substr(0, first_row) + "row = 99999999999999999999:12\n" +
                 body.substr(second_row),                    // 20 digits
         }) {
        mutants.push_back(reseal(b + "checksum = \n"));
    }
    ASSERT_GT(mutants.size(), 300u);

    std::size_t served = 0;
    testing::internal::CaptureStderr();
    for (std::size_t i = 0; i < mutants.size(); ++i) {
        SCOPED_TRACE("mutant " + std::to_string(i));
        write_file(path, mutants[i]);
        cache::CacheLookup hit;
        ASSERT_NO_THROW(hit = result_cache.lookup(spec));
        ASSERT_EQ(hit.kind, cache::HitKind::Exact);
        if (hit.clustering) {
            ++served;
            EXPECT_EQ(*hit.clustering, cold.analysis.clustering);
            EXPECT_EQ(mutants[i], pristine) << "a changed tally was served";
        }
        if (i >= raw_count) {
            EXPECT_FALSE(hit.clustering) << "a resealed broken body was served";
        }
        write_file(path, mutants[i]);
        const cache::CachedRunResult run =
            cache::run_campaign_cached(spec, result_cache, 1);
        EXPECT_EQ(run.analysis.clustering, cold.analysis.clustering);
    }
    (void)testing::internal::GetCapturedStderr();
    EXPECT_EQ(served, 1u) << "only the no-op truncation keeps the tally";
    EXPECT_EQ(read_file(path), pristine);
}

TEST_F(CacheTest, FixedNPrefixExtensionIsBitIdenticalToAColdRun) {
    campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache, 1);

    campaign::CampaignSpec bigger = spec;
    bigger.measurements = 25;
    obs::set_metrics_enabled(true);
    obs::registry().reset_values();
    const obs::Metrics& m = obs::metrics();
    const cache::CachedRunResult extended =
        cache::run_campaign_cached(bigger, result_cache, 1);
    EXPECT_EQ(extended.cache, cache::HitKind::Prefix);
    EXPECT_EQ(m.cache_extensions_total.value(), 1u);
    // Exactly the cached prefix was served and exactly the delta drawn.
    const std::size_t algorithms = extended.analysis.measurements.size();
    EXPECT_EQ(extended.samples_from_cache, algorithms * spec.measurements);
    EXPECT_EQ(m.samples_total.value(),
              algorithms * (bigger.measurements - spec.measurements));

    const core::AnalysisResult cold = campaign::run_campaign(bigger, 1);
    expect_sets_identical(extended.analysis.measurements, cold.measurements);
    expect_clusterings_identical(extended.analysis.clustering,
                                 cold.clustering);

    // The extended result was published under its own plan hash: the bigger
    // budget now hits exactly, and the original entry stays valid for its
    // budget (the byte/entry caps bound the accumulation).
    EXPECT_EQ(result_cache.stats().entries, 2u);
    EXPECT_EQ(result_cache.lookup(bigger).kind, cache::HitKind::Exact);
    EXPECT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Exact);
}

TEST_F(CacheTest, AdaptivePrefixExtensionReplaysTheEngineBitIdentically) {
    // The engine re-runs from scratch over the replayed prefix: identical
    // values in identical order force identical stop decisions, so the
    // extended result equals a cold engine run of the bigger cap.
    campaign::CampaignSpec spec = adaptive_spec();
    spec.measurements = 12;
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache, 1);

    campaign::CampaignSpec bigger = spec;
    bigger.measurements = 20;
    const cache::CachedRunResult extended =
        cache::run_campaign_cached(bigger, result_cache, 1);
    EXPECT_EQ(extended.cache, cache::HitKind::Prefix);

    const core::AnalysisResult cold = campaign::run_campaign(bigger, 1);
    expect_sets_identical(extended.analysis.measurements, cold.measurements);
    expect_clusterings_identical(extended.analysis.clustering,
                                 cold.clustering);
    EXPECT_EQ(extended.analysis.samples_per_alg, cold.samples_per_alg);
    EXPECT_EQ(extended.analysis.fixed_n_samples, cold.fixed_n_samples);
}

TEST_F(CacheTest, CoordinatedExactHitRestoresTheStopHistory) {
    const campaign::CampaignSpec spec = coordinated_spec();
    cache::ResultCache result_cache = make_cache();
    const cache::CachedRunResult cold =
        cache::run_campaign_cached(spec, result_cache, 2);
    ASSERT_FALSE(cold.stopset_rounds.empty());

    obs::set_metrics_enabled(true);
    obs::registry().reset_values();
    const cache::CachedRunResult warm =
        cache::run_campaign_cached(spec, result_cache, 2);
    EXPECT_EQ(warm.cache, cache::HitKind::Exact);
    EXPECT_EQ(obs::metrics().samples_total.value(), 0u);
    // The coordinator's final clustering rides in the tally: no clustering,
    // no comparison.
    EXPECT_TRUE(warm.stored_clustering);
    EXPECT_EQ(obs::metrics().clusterings_total.value(), 0u);
    EXPECT_EQ(obs::metrics().bootstrap_resamples_total.value(), 0u);
    // The broadcast history rides in the entry manifest, so the CLI's
    // coordinator report is reproducible from the cache alone.
    EXPECT_EQ(warm.stopset_rounds, cold.stopset_rounds);
    EXPECT_EQ(warm.rounds, cold.rounds);
    expect_sets_identical(warm.analysis.measurements,
                          cold.analysis.measurements);
    EXPECT_EQ(warm.analysis.clustering, cold.analysis.clustering);
}

TEST_F(CacheTest, CoordinatedPrefixExtensionMatchesAColdCoordinatedRun) {
    campaign::CampaignSpec spec = coordinated_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache, 2);

    campaign::CampaignSpec bigger = spec;
    bigger.measurements = 30;
    const cache::CachedRunResult extended =
        cache::run_campaign_cached(bigger, result_cache, 2);
    EXPECT_EQ(extended.cache, cache::HitKind::Prefix);

    const campaign::CoordinatedCampaignResult cold =
        campaign::run_coordinated_campaign(bigger, 2);
    expect_sets_identical(extended.analysis.measurements,
                          cold.analysis.measurements);
    expect_clusterings_identical(extended.analysis.clustering,
                                 cold.analysis.clustering);
    EXPECT_EQ(extended.stopset_rounds, cold.stopset_rounds);
    EXPECT_EQ(extended.rounds, cold.rounds);
}

TEST_F(CacheTest, ShardLocalAdaptiveWithMultipleShardsBypasses) {
    // Shard-local adaptive counts depend on K, which the plan hash excludes:
    // serving such a run cross-K would silently change results.
    const campaign::CampaignSpec spec = adaptive_spec();
    EXPECT_TRUE(cache::cacheable(small_spec(), 4));
    EXPECT_TRUE(cache::cacheable(spec, 1));
    EXPECT_TRUE(cache::cacheable(coordinated_spec(), 4));
    EXPECT_FALSE(cache::cacheable(spec, 2));

    cache::ResultCache result_cache = make_cache();
    const cache::CachedRunResult run =
        cache::run_campaign_cached(spec, result_cache, 2);
    EXPECT_EQ(run.cache, cache::HitKind::Miss);
    EXPECT_TRUE(run.bypassed);
    EXPECT_EQ(result_cache.stats().entries, 0u) << "bypassed runs not stored";
}

TEST_F(CacheTest, ShardCountPastTheVariantsThrowsOnEveryTierUntouched) {
    // K is checked before the lookup: K = p + 1 would leave an empty shard,
    // so a miss, an exact hit, a prefix extension and a coordinated run all
    // throw, and the cache directory keeps its bytes.
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache, 2);
    const auto snapshot = [&] {
        std::map<std::string, std::string> files;
        for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
            std::ifstream in(entry.path(), std::ios::binary);
            std::ostringstream bytes;
            bytes << in.rdbuf();
            files[entry.path().filename().string()] = bytes.str();
        }
        return files;
    };
    campaign::CampaignSpec miss = spec;
    miss.measurement_seed += 1;
    campaign::CampaignSpec prefix = spec;
    prefix.measurements += 5;
    ASSERT_EQ(result_cache.lookup(miss).kind, cache::HitKind::Miss);
    ASSERT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Exact);
    ASSERT_EQ(result_cache.lookup(prefix).kind, cache::HitKind::Prefix);
    // The lookups above may bump the entry's logical clock; nothing below
    // may write.
    const std::map<std::string, std::string> looked_up = snapshot();
    ASSERT_FALSE(looked_up.empty());
    const std::size_t too_many = spec.variants().size() + 1;
    for (const campaign::CampaignSpec& plan :
         {miss, spec, prefix, coordinated_spec()}) {
        EXPECT_THROW((void)cache::run_campaign_cached(plan, result_cache,
                                                      too_many),
                     relperf::InvalidArgument)
            << plan.hash();
    }
    EXPECT_EQ(snapshot(), looked_up);
}

TEST_F(CacheTest, TruncatedPayloadDegradesToAMissAndSelfRepairs) {
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    const cache::CachedRunResult cold =
        cache::run_campaign_cached(spec, result_cache, 1);

    const std::string payload = only_file("csv");
    const std::string content = read_file(payload);
    write_file(payload, content.substr(0, content.size() / 2));

    const cache::CachedRunResult repaired =
        cache::run_campaign_cached(spec, result_cache, 1);
    EXPECT_EQ(repaired.cache, cache::HitKind::Miss)
        << "a truncated entry must never be served";
    expect_sets_identical(repaired.analysis.measurements,
                          cold.analysis.measurements);
    // The miss re-measured and re-published; the entry works again.
    EXPECT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Exact);
}

TEST_F(CacheTest, TamperedManifestHashFailsValidation) {
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache, 1);

    const std::string payload = only_file("csv");
    std::string content = read_file(payload);
    const std::size_t pos = content.find("# spec_hash = ");
    ASSERT_NE(pos, std::string::npos);
    // Flip one nibble of the recorded hash: merge_shards must reject the
    // entry as foreign.
    const std::size_t digit = pos + std::string("# spec_hash = ").size();
    content[digit] = content[digit] == '0' ? '1' : '0';
    write_file(payload, content);

    EXPECT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Miss);
}

TEST_F(CacheTest, DroppedSampleRowFailsTheCountCheck) {
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache, 1);

    const std::string payload = only_file("csv");
    const std::string content = read_file(payload);
    // Remove the final data row (keep the trailing newline shape intact).
    const std::size_t last_break =
        content.find_last_of('\n', content.size() - 2);
    ASSERT_NE(last_break, std::string::npos);
    write_file(payload, content.substr(0, last_break + 1));

    EXPECT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Miss);
}

TEST_F(CacheTest, GarbageSidecarIsAdvisoryAndGetsRewritten) {
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache, 1);
    write_file(only_file("meta"), "not a sidecar at all\n");

    // The payload still validates, so the exact tier still serves — and the
    // touch rewrites a well-formed sidecar.
    EXPECT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Exact);
    const std::string rewritten = read_file(only_file("meta"));
    EXPECT_NE(rewritten.find("plan_hash = "), std::string::npos);
    EXPECT_NE(rewritten.find("budget = 15"), std::string::npos);
}

TEST_F(CacheTest, OrphanPayloadWithoutSidecarStillHitsExactly) {
    const campaign::CampaignSpec spec = small_spec();
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache, 1);
    fs::remove(only_file("meta"));
    EXPECT_EQ(result_cache.stats().entries, 0u) << "orphan: no sidecar";

    EXPECT_EQ(result_cache.lookup(spec).kind, cache::HitKind::Exact);
    EXPECT_EQ(result_cache.stats().entries, 1u) << "sidecar recreated";
}

TEST_F(CacheTest, UnusableDirectoryDegradesToPassThrough) {
    // The configured path is an existing regular file, so neither the
    // directory scan nor the store can ever succeed — the campaign must
    // still run to completion with a plain miss, twice.
    const std::string blocker = testing::TempDir() + "relperf_cache_blocker";
    write_file(blocker, "in the way\n");
    cache::ResultCache result_cache(cache::CacheConfig{blocker, 0, 0});

    const campaign::CampaignSpec spec = small_spec();
    const core::AnalysisResult reference = campaign::run_campaign(spec, 1);
    for (int round = 0; round < 2; ++round) {
        cache::CachedRunResult run;
        ASSERT_NO_THROW(run = cache::run_campaign_cached(spec, result_cache, 1));
        EXPECT_EQ(run.cache, cache::HitKind::Miss);
        expect_sets_identical(run.analysis.measurements,
                              reference.measurements);
    }
    EXPECT_EQ(result_cache.stats().entries, 0u);
    fs::remove(blocker);
}

TEST_F(CacheTest, RacingWritersOfTheSamePlanLeaveAValidEntry) {
    // Two independent cache handles publish the same plan back to back (the
    // worst interleaving two processes can produce, since temp names are
    // per-process and renames are atomic): last publish wins, and the entry
    // must validate. A stray temp file from a third, crashed writer is inert.
    const campaign::CampaignSpec spec = small_spec();
    const core::AnalysisResult result = campaign::run_campaign(spec, 1);
    cache::ResultCache first = make_cache();
    cache::ResultCache second = make_cache();
    first.store(spec, result.measurements);
    second.store(spec, result.measurements);
    write_file(dir_ + "/deadbeefdeadbeef.csv.tmp.999", "partial");

    EXPECT_EQ(first.stats().entries, 1u);
    const cache::CacheLookup hit = second.lookup(spec);
    EXPECT_EQ(hit.kind, cache::HitKind::Exact);
    expect_sets_identical(hit.merged, result.measurements);
}

TEST_F(CacheTest, EvictionIsLeastRecentlyUsedOnTheLogicalClock) {
    campaign::CampaignSpec a = small_spec();
    campaign::CampaignSpec b = small_spec();
    b.measurement_seed += 1;
    campaign::CampaignSpec c = small_spec();
    c.measurement_seed += 2;
    const core::AnalysisResult run_a = campaign::run_campaign(a, 1);
    const core::AnalysisResult run_b = campaign::run_campaign(b, 1);
    const core::AnalysisResult run_c = campaign::run_campaign(c, 1);

    cache::ResultCache result_cache(cache::CacheConfig{dir_, 2, 0});
    result_cache.store(a, run_a.measurements);
    result_cache.store(b, run_b.measurements);
    EXPECT_EQ(result_cache.stats().entries, 2u);

    // Touch `a` so `b` becomes the oldest, then overflow with `c`.
    EXPECT_EQ(result_cache.lookup(a).kind, cache::HitKind::Exact);
    result_cache.store(c, run_c.measurements);
    EXPECT_EQ(result_cache.stats().entries, 2u);
    EXPECT_EQ(result_cache.lookup(b).kind, cache::HitKind::Miss)
        << "the least recently used entry is the victim";
    EXPECT_EQ(result_cache.lookup(a).kind, cache::HitKind::Exact);
    EXPECT_EQ(result_cache.lookup(c).kind, cache::HitKind::Exact);
}

TEST_F(CacheTest, ByteCapEvictsDownToTheBudget) {
    campaign::CampaignSpec a = small_spec();
    campaign::CampaignSpec b = small_spec();
    b.measurement_seed += 1;
    const core::AnalysisResult run_a = campaign::run_campaign(a, 1);
    const core::AnalysisResult run_b = campaign::run_campaign(b, 1);

    // Measure one entry's on-disk footprint, then cap the cache at one and
    // a half of it: room for one entry, never for two.
    const std::size_t one_entry = [&] {
        cache::ResultCache probe = make_cache();
        probe.store(a, run_a.measurements);
        const std::size_t bytes = probe.stats().bytes;
        fs::remove_all(dir_);
        return bytes;
    }();
    ASSERT_GT(one_entry, 0u);

    const std::size_t cap = one_entry + one_entry / 2;
    cache::ResultCache result_cache(cache::CacheConfig{dir_, 0, cap});
    result_cache.store(a, run_a.measurements);
    result_cache.store(b, run_b.measurements);
    EXPECT_EQ(result_cache.stats().entries, 1u);
    EXPECT_LE(result_cache.stats().bytes, cap);
    EXPECT_EQ(result_cache.lookup(b).kind, cache::HitKind::Exact)
        << "the just-stored entry survives; the older one was evicted";
}

TEST_F(CacheTest, TallyIsCountedEvictedAndNeverOutlivesItsPayload) {
    campaign::CampaignSpec a = small_spec();
    campaign::CampaignSpec b = small_spec();
    b.measurement_seed += 1;
    const core::AnalysisResult run_a = campaign::run_campaign(a, 1);
    const core::AnalysisResult run_b = campaign::run_campaign(b, 1);
    const auto files = [this] {
        std::vector<std::string> names;
        for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
            names.push_back(e.path().filename().string());
        }
        std::sort(names.begin(), names.end());
        return names;
    };
    const auto name_of = [](std::uint64_t hash, const char* extension) {
        return relperf::str::format("%016llx.%s",
                                    static_cast<unsigned long long>(hash),
                                    extension);
    };

    // stats() counts all three files of an entry.
    cache::ResultCache one_entry(cache::CacheConfig{dir_, 1, 0});
    one_entry.store(a, run_a.measurements, {}, &run_a.clustering);
    std::size_t on_disk = 0;
    for (const std::string& name : files()) {
        on_disk += static_cast<std::size_t>(fs::file_size(dir_ + "/" + name));
    }
    EXPECT_EQ(files(),
              (std::vector<std::string>{name_of(a.hash(), "csv"),
                                        name_of(a.hash(), "meta"),
                                        name_of(a.hash(), "tally")}));
    EXPECT_EQ(one_entry.stats().bytes, on_disk);

    // Eviction takes the tally with the entry.
    one_entry.store(b, run_b.measurements, {}, &run_b.clustering);
    EXPECT_EQ(files(),
              (std::vector<std::string>{name_of(b.hash(), "csv"),
                                        name_of(b.hash(), "meta"),
                                        name_of(b.hash(), "tally")}));

    // A re-store drops the old tally before the new payload lands. Another
    // payload of the same plan (a Real-executor rerun measures new values)
    // stored without a clustering leaves no tally, and an old tally put
    // back beside it, as a racing writer could, is stale, not served.
    fs::remove_all(dir_);
    cache::ResultCache result_cache = make_cache();
    result_cache.store(a, run_a.measurements, {}, &run_a.clustering);
    const std::string old_tally = read_file(only_file("tally"));
    core::MeasurementSet rerun;
    for (std::size_t i = 0; i < run_a.measurements.size(); ++i) {
        std::vector<double> samples(run_a.measurements.samples(i).begin(),
                                    run_a.measurements.samples(i).end());
        for (double& v : samples) v *= 1.25;
        rerun.add(run_a.measurements.name(i), std::move(samples));
    }
    result_cache.store(a, rerun);
    EXPECT_FALSE(fs::exists(dir_ + "/" + name_of(a.hash(), "tally")));
    testing::internal::CaptureStderr();
    EXPECT_FALSE(result_cache.lookup(a).clustering) << "absent";
    write_file(dir_ + "/" + name_of(a.hash(), "tally"), old_tally);
    const cache::CacheLookup paired = result_cache.lookup(a);
    const std::string warnings = testing::internal::GetCapturedStderr();
    EXPECT_EQ(paired.kind, cache::HitKind::Exact);
    EXPECT_FALSE(paired.clustering) << "an old tally beside a new payload";
    EXPECT_NE(warnings.find("belongs to other measurements"),
              std::string::npos);

    const core::AnalysisResult reclustered =
        core::analyze_measurements(rerun, a.analysis_config());
    result_cache.store(a, rerun, {}, &reclustered.clustering);
    const cache::CacheLookup served = result_cache.lookup(a);
    ASSERT_TRUE(served.clustering);
    EXPECT_EQ(*served.clustering, reclustered.clustering);
}

TEST_F(CacheTest, SkipThenDrawEqualsAPureDrawOnTheGlobalSource) {
    // The SampleSource::skip contract the replay path stands on: skipping k
    // samples then drawing m yields exactly samples [k, k+m) of a pure draw.
    const campaign::CampaignSpec spec = small_spec();
    campaign::GlobalSampleSource reference_bundle(spec);
    campaign::GlobalSampleSource skipped_bundle(spec);
    core::SampleSource& reference = reference_bundle.source();
    core::SampleSource& skipped = skipped_bundle.source();
    ASSERT_EQ(reference.count(), skipped.count());
    for (std::size_t i = 0; i < reference.count(); ++i) {
        const std::vector<double> pure = reference.draw(i, 10);
        skipped.skip(i, 4);
        const std::vector<double> tail = skipped.draw(i, 6);
        ASSERT_EQ(tail.size(), 6u);
        for (std::size_t k = 0; k < tail.size(); ++k) {
            EXPECT_EQ(tail[k], pure[4 + k]) << "alg " << i << " sample " << k;
        }
    }
}

TEST_F(CacheTest, CachedSourceReplaysThePrefixAndExtendsSeamlessly) {
    const campaign::CampaignSpec spec = small_spec(); // budget 15
    cache::ResultCache result_cache = make_cache();
    (void)cache::run_campaign_cached(spec, result_cache, 1);
    const cache::CacheLookup hit = result_cache.lookup(spec);
    ASSERT_EQ(hit.kind, cache::HitKind::Exact);

    campaign::GlobalSampleSource cold_bundle(spec);
    campaign::GlobalSampleSource warm_bundle(spec);
    cache::CachedSampleSource replay(warm_bundle.source(), hit.merged);
    core::SampleSource& cold = cold_bundle.source();
    ASSERT_EQ(replay.count(), cold.count());

    std::size_t expected_served = 0;
    for (std::size_t i = 0; i < cold.count(); ++i) {
        const std::vector<double> pure = cold.draw(i, 20);
        if (i % 2 == 0) {
            // Straight through the prefix (15 cached) into fresh territory.
            const std::vector<double> replayed = replay.draw(i, 20);
            ASSERT_EQ(replayed.size(), 20u);
            for (std::size_t k = 0; k < 20; ++k) {
                EXPECT_EQ(replayed[k], pure[k]) << "alg " << i << " at " << k;
            }
            expected_served += 15;
        } else {
            // skip() inside the prefix is free; the draw crosses the
            // boundary and must still line up sample for sample.
            replay.skip(i, 5);
            const std::vector<double> replayed = replay.draw(i, 15);
            ASSERT_EQ(replayed.size(), 15u);
            for (std::size_t k = 0; k < 15; ++k) {
                EXPECT_EQ(replayed[k], pure[5 + k])
                    << "alg " << i << " at " << k;
            }
            expected_served += 10;
        }
    }
    EXPECT_EQ(replay.served(), expected_served);
}

TEST_F(CacheTest, CachedSourceRejectsAMismatchedEntry) {
    const campaign::CampaignSpec spec = small_spec();
    campaign::GlobalSampleSource bundle(spec);
    core::MeasurementSet wrong_count;
    wrong_count.add("algDDD", {1.0});
    EXPECT_THROW(cache::CachedSampleSource(bundle.source(), wrong_count),
                 relperf::Error);
}
