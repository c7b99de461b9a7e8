#include "workloads.hpp"

#include "cache/cached_campaign.hpp"
#include "cache/cached_source.hpp"
#include "cache/result_cache.hpp"
#include "campaign/campaign.hpp"
#include "core/cluster_diff.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace relbench {

namespace cache = relperf::cache;
namespace campaign = relperf::campaign;
namespace core = relperf::core;
namespace obs = relperf::obs;
namespace str = relperf::str;
using relperf::Error;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Seed 0 is the CampaignSpec defaults; seed s shifts both plan seeds by s.
void shift_seeds(campaign::CampaignSpec& spec, std::uint64_t seed) {
    const campaign::CampaignSpec defaults;
    spec.measurement_seed = defaults.measurement_seed + seed;
    spec.clustering_seed = defaults.clustering_seed + seed;
}

void apply_size(campaign::CampaignSpec& spec, const Size& size) {
    spec.clustering_repetitions = size.repetitions;
    spec.bootstrap_rounds = size.bootstrap_rounds;
    spec.validate();
}

/// The program's own counters, read around an op.
struct Counters {
    std::uint64_t samples = 0;
    std::uint64_t resamples = 0;
    std::uint64_t clusterings = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t extensions = 0;

    static Counters now() {
        const obs::Metrics& m = obs::metrics();
        return {m.samples_total.value(),
                m.bootstrap_resamples_total.value(),
                m.clusterings_total.value(),
                m.cache_hits_total.value(),
                m.cache_misses_total.value(),
                m.cache_extensions_total.value()};
    }

    [[nodiscard]] Counters since(const Counters& before) const {
        return {samples - before.samples,
                resamples - before.resamples,
                clusterings - before.clusterings,
                hits - before.hits,
                misses - before.misses,
                extensions - before.extensions};
    }
};

/// A decorator cannot see the program's counters, and vice versa; a
/// disagreement means one of them is wrong, so the traced op fails.
void require_agreement(const char* what, std::uint64_t decorator,
                       std::uint64_t counter) {
    if (decorator != counter) {
        throw Error(str::format(
            "counter disagreement: %s is %llu by the benchmark's decorator "
            "but %llu by the program's counter",
            what, static_cast<unsigned long long>(decorator),
            static_cast<unsigned long long>(counter)));
    }
}

/// What the decorators of one traced op observed.
struct Tally {
    std::uint64_t comparator_calls = 0;
    double comparator_busy_s = 0.0;
    std::uint64_t clusterings = 0;
    double cluster_wall_s = 0.0;
    std::uint64_t draw_calls = 0;
    std::uint64_t drawn = 0;
    double draw_s = 0.0;
    double shards_s = 0.0;
    double merge_s = 0.0;
};

/// Times every comparison of the wrapped comparator. The clusterer calls
/// compare() from one thread, so the tally needs no synchronisation.
class TimingComparator final : public core::Comparator {
public:
    TimingComparator(const core::Comparator& inner, Tally& tally)
        : inner_(inner), tally_(tally) {}

    [[nodiscard]] core::Ordering compare(std::span<const double> a,
                                         std::span<const double> b,
                                         relperf::stats::Rng& rng) const override {
        const Clock::time_point start = Clock::now();
        const core::Ordering outcome = inner_.compare(a, b, rng);
        tally_.comparator_busy_s += seconds_since(start);
        ++tally_.comparator_calls;
        return outcome;
    }

    [[nodiscard]] std::string name() const override { return inner_.name(); }

private:
    const core::Comparator& inner_;
    Tally& tally_;
};

/// Times every draw (and stream fast-forward) of the wrapped source.
class TimingSource final : public core::SampleSource {
public:
    TimingSource(core::SampleSource& inner, Tally& tally)
        : inner_(inner), tally_(tally) {}

    [[nodiscard]] std::size_t count() const override { return inner_.count(); }
    [[nodiscard]] std::string name(std::size_t index) const override {
        return inner_.name(index);
    }
    [[nodiscard]] std::vector<double> draw(std::size_t index,
                                           std::size_t n) override {
        const Clock::time_point start = Clock::now();
        std::vector<double> values = inner_.draw(index, n);
        tally_.draw_s += seconds_since(start);
        ++tally_.draw_calls;
        tally_.drawn += values.size();
        return values;
    }
    void skip(std::size_t index, std::size_t n) override {
        const Clock::time_point start = Clock::now();
        inner_.skip(index, n);
        tally_.draw_s += seconds_since(start);
    }

private:
    core::SampleSource& inner_;
    Tally& tally_;
};

core::AnalysisResult assemble(core::MeasurementSet measurements,
                              core::Clustering clustering) {
    core::AnalysisResult out;
    for (std::size_t i = 0; i < measurements.size(); ++i) {
        out.samples_per_alg.push_back(measurements.samples(i).size());
    }
    out.total_samples = measurements.total_samples();
    out.fixed_n_samples = out.total_samples;
    out.measurements = std::move(measurements);
    out.clustering = std::move(clustering);
    return out;
}

/// analyze_measurements with the comparator behind a timing decorator.
core::AnalysisResult timed_analysis(const campaign::CampaignSpec& spec,
                                    core::MeasurementSet measurements,
                                    Tally& tally) {
    const core::AnalysisConfig config = spec.analysis_config();
    const core::BootstrapComparator comparator(config.comparator);
    const TimingComparator timed(comparator, tally);
    const core::RelativeClusterer clusterer(timed, config.clustering);
    const Clock::time_point start = Clock::now();
    core::Clustering clustering = clusterer.cluster(measurements);
    tally.cluster_wall_s += seconds_since(start);
    ++tally.clusterings;
    return assemble(std::move(measurements), std::move(clustering));
}

/// campaign::run_campaign (fixed N) as its three public steps: shard
/// runner, merge, clustering.
core::AnalysisResult timed_campaign(const campaign::CampaignSpec& spec,
                                    std::size_t shards, std::size_t workers,
                                    Tally& tally) {
    Clock::time_point start = Clock::now();
    const std::vector<campaign::ShardResult> results =
        campaign::LocalShardRunner(workers).run(spec, shards);
    tally.shards_s += seconds_since(start);
    start = Clock::now();
    core::MeasurementSet merged = campaign::merge_shards(spec, results);
    tally.merge_s += seconds_since(start);
    return timed_analysis(spec, std::move(merged), tally);
}

/// Fills the layers every workload reports from the tally and the counter
/// deltas of the op, after checking the ones both sides count.
void publish(const Tally& tally, const Counters& delta,
             const campaign::CampaignSpec& spec, std::size_t algorithms,
             bool comparator_decorated, Layers& layers) {
    const std::uint64_t comparisons =
        delta.resamples / (2 * spec.bootstrap_rounds);
    if (comparator_decorated) {
        require_agreement("comparator calls", tally.comparator_calls,
                          comparisons);
        require_agreement("clusterings", tally.clusterings, delta.clusterings);
    }
    const std::uint64_t per_clustering =
        spec.clustering_repetitions * algorithms * (algorithms - 1) / 2;
    const std::uint64_t scheduled = delta.clusterings * per_clustering;
    if (scheduled < comparisons) {
        throw Error(str::format(
            "counter disagreement: %llu comparisons exceed the %llu that "
            "%llu clusterings of %zu algorithms schedule",
            static_cast<unsigned long long>(comparisons),
            static_cast<unsigned long long>(scheduled),
            static_cast<unsigned long long>(delta.clusterings), algorithms));
    }
    layers["comparator.calls"] = static_cast<double>(comparisons);
    layers["engine.clusterings"] = static_cast<double>(delta.clusterings);
    layers["engine.comparisons"] = static_cast<double>(comparisons);
    layers["engine.replayed"] = static_cast<double>(scheduled - comparisons);
    layers["sim.samples"] = static_cast<double>(delta.samples);
    if (comparator_decorated) {
        layers["comparator.busy_s"] = tally.comparator_busy_s;
        if (tally.comparator_calls > 0) {
            layers["comparator.ns_per_call"] =
                1e9 * tally.comparator_busy_s /
                static_cast<double>(tally.comparator_calls);
        }
        layers["cluster.wall_s"] = tally.cluster_wall_s;
        layers["cluster.self_s"] =
            tally.cluster_wall_s - tally.comparator_busy_s;
    }
    layers["sim.draw_calls"] = static_cast<double>(tally.draw_calls);
    layers["sim.draw_s"] = tally.draw_s;
    layers["campaign.shards_s"] = tally.shards_s;
    layers["campaign.merge_s"] = tally.merge_s;
}

std::string compare_bytes(const std::string& what, const std::string& got,
                          const std::string& want) {
    if (got == want) return {};
    return what + ": clustering CSV is not byte-identical to the reference";
}

std::string compare_count(const std::string& what, std::uint64_t got,
                          std::uint64_t want) {
    if (got == want) return {};
    return str::format("%s: drew %llu samples, expected %llu", what.c_str(),
                       static_cast<unsigned long long>(got),
                       static_cast<unsigned long long>(want));
}

// ---------------------------------------------------------------------------
// fixed: the 16-algorithm plan at paper defaults, one comparator-bound
// clustering per op; no engine rounds, no cache.
// ---------------------------------------------------------------------------
class FixedWorkload final : public Workload {
public:
    FixedWorkload(std::uint64_t seed, const Size& size, const Paths& paths)
        : Workload(seed, paths) {
        spec_.name = "relbench-fixed";
        spec_.sizes = {40, 60, 90, 140};
        spec_.iters = 6;
        shift_seeds(spec_, seed);
        apply_size(spec_, size);
    }

    OpOutput run() override {
        const Counters before = Counters::now();
        OpOutput out;
        out.results.push_back(campaign::run_campaign(spec_, kShards, kShards));
        out.samples_drawn.push_back(Counters::now().since(before).samples);
        return out;
    }

    OpOutput run_traced(Layers& layers) override {
        const Counters before = Counters::now();
        const Clock::time_point start = Clock::now();
        Tally tally;
        OpOutput out;
        out.results.push_back(timed_campaign(spec_, kShards, kShards, tally));
        layers["traced_wall_s"] = seconds_since(start);
        const Counters delta = Counters::now().since(before);
        out.samples_drawn.push_back(delta.samples);
        publish(tally, delta, spec_, algorithms(), true, layers);
        layers["unaccounted_s"] = layers["traced_wall_s"] - tally.shards_s -
                                  tally.merge_s - tally.cluster_wall_s;
        return out;
    }

    std::string check(const OpOutput& out, const std::vector<std::string>& csvs,
                      const std::vector<Reference>& refs) const override {
        if (std::string why = compare_bytes("fixed", csvs.at(0), refs.at(0).csv);
            !why.empty()) {
            return why;
        }
        return compare_count("fixed", out.samples_drawn.at(0),
                             algorithms() * spec_.measurements);
    }

    std::vector<Reference> committed_references() const override {
        if (!std::filesystem::exists(ref_path(""))) return {};
        return {Reference{read_file(ref_path("fixed.csv")), {}}};
    }

    std::vector<Reference> independent_references() override {
        OpOutput out;
        out.results.push_back(campaign::run_campaign(spec_, 1, 1));
        return {Reference{render(out).at(0), {}}};
    }

private:
    static constexpr std::size_t kShards = 4; // and as many workers

    [[nodiscard]] std::size_t algorithms() const {
        return spec_.variants().size();
    }

    campaign::CampaignSpec spec_;
};

// ---------------------------------------------------------------------------
// adaptive: the 8-algorithm CI plan, coordinated confidence-targeted
// stopping; the only workload where engine rounds, the stopping rule and
// the frozen-pair replay run.
// ---------------------------------------------------------------------------
class AdaptiveWorkload final : public Workload {
public:
    AdaptiveWorkload(std::uint64_t seed, const Size& size, const Paths& paths)
        : Workload(seed, paths) {
        spec_.name = "relbench-adaptive";
        spec_.measurements = 30;
        spec_.adaptive_min = 10;
        spec_.adaptive_batch = 5;
        spec_.adaptive_coordinated = true;
        spec_.adaptive_confidence = 0.95;
        spec_.shards = kShards;
        // How many rounds the stopping rule needs depends on the seeds: over
        // measurement seeds an op takes 2 to 6 clusterings (0.35 to 1.35 s),
        // over clustering seeds 4 or 5, which would swamp any bound on a
        // timing. So the measured samples stay the default plan's, and seed
        // s picks the clustering seed from a committed list of those whose
        // op has the default seed's shape (3 rounds, 4 clusterings, 135
        // samples).
        spec_.clustering_seed = listed_clustering_seed(seed);
        apply_size(spec_, size);
    }

    OpOutput run() override {
        const Counters before = Counters::now();
        campaign::CoordinatedCampaignResult result =
            campaign::run_coordinated_campaign(spec_, kShards);
        OpOutput out;
        out.rounds = result.rounds;
        out.results.push_back(std::move(result.analysis));
        out.samples_drawn.push_back(Counters::now().since(before).samples);
        return out;
    }

    /// run_coordinated_campaign's engine run over a timing source, with a
    /// round observer marking round boundaries. The engine builds its own
    /// comparator, so the comparator and clusterer layers are not split
    /// here: engine.round_s holds them.
    OpOutput run_traced(Layers& layers) override {
        const Counters before = Counters::now();
        const Clock::time_point start = Clock::now();
        Tally tally;
        campaign::GlobalSampleSource bundle(spec_);
        TimingSource source(bundle.source(), tally);
        const core::AnalysisConfig config = spec_.analysis_config();
        const core::MeasurementEngine engine(
            spec_.adaptive_config(), config.comparator, config.clustering);
        OpOutput out;
        Clock::time_point last_round;
        double draw_s_at_last_round = 0.0;
        const Clock::time_point engine_start = Clock::now();
        core::EngineResult result =
            engine.run(source, [&](const core::EngineRound&) {
                ++out.rounds;
                last_round = Clock::now();
                draw_s_at_last_round = tally.draw_s;
            });
        const Clock::time_point engine_end = Clock::now();
        core::AnalysisResult analysis;
        analysis.total_samples = result.total_samples;
        analysis.fixed_n_samples = result.fixed_n_samples;
        analysis.measurements = std::move(result.measurements);
        analysis.clustering = std::move(result.clustering);
        analysis.samples_per_alg = std::move(result.samples_per_alg);
        out.results.push_back(std::move(analysis));
        layers["traced_wall_s"] = seconds_since(start);

        const Counters delta = Counters::now().since(before);
        out.samples_drawn.push_back(delta.samples);
        require_agreement("samples drawn", tally.drawn, delta.samples);
        publish(tally, delta, spec_, source.count(), false, layers);
        // Every round clusters once. Each sort compares every pair once, so
        // a pair frozen before the last round is replayed in it, and any
        // replay forces one final clean re-clustering.
        require_agreement("clusterings",
                          out.rounds + (layers["engine.replayed"] > 0.0 ? 1 : 0),
                          delta.clusterings);
        const double in_rounds =
            std::chrono::duration<double>(last_round - engine_start).count();
        layers["engine.rounds"] = static_cast<double>(out.rounds);
        layers["engine.round_s"] = in_rounds - draw_s_at_last_round;
        layers["engine.final_s"] =
            std::chrono::duration<double>(engine_end - last_round).count();
        layers["unaccounted_s"] =
            layers["traced_wall_s"] -
            std::chrono::duration<double>(engine_end - engine_start).count();
        return out;
    }

    std::string check(const OpOutput& out, const std::vector<std::string>& csvs,
                      const std::vector<Reference>& refs) const override {
        const Reference& ref = refs.at(0);
        core::ClusterDiff diff;
        try {
            diff = core::diff_clusterings(
                core::parse_final_clusters_csv(ref.csv, "adaptive reference"),
                core::parse_final_clusters_csv(csvs.at(0), "adaptive op"));
        } catch (const std::exception& e) {
            return std::string("adaptive: ") + e.what();
        }
        if (!diff.identical()) {
            return "adaptive: membership differs from the reference: " +
                   core::render_cluster_diff(diff);
        }
        if (out.results.at(0).samples_per_alg != ref.per_alg) {
            return "adaptive: per-algorithm sample counts differ from the "
                   "reference";
        }
        std::uint64_t expected = 0;
        for (const std::size_t n : ref.per_alg) expected += n;
        return compare_count("adaptive", out.samples_drawn.at(0), expected);
    }

    std::vector<Reference> committed_references() const override {
        if (!std::filesystem::exists(ref_path(""))) return {};
        Reference ref{read_file(ref_path("adaptive.csv")), {}};
        // `algorithm,samples` rows as relperf_cli --samples-csv writes them.
        std::istringstream rows(read_file(ref_path("adaptive-samples.csv")));
        std::string line;
        std::getline(rows, line); // header
        while (std::getline(rows, line)) {
            const std::size_t comma = line.rfind(',');
            if (comma == std::string::npos) {
                throw Error("adaptive-samples.csv: malformed row '" + line + "'");
            }
            ref.per_alg.push_back(str::parse_size(line.substr(comma + 1),
                                                  "adaptive-samples.csv"));
        }
        return {std::move(ref)};
    }

    std::vector<Reference> independent_references() override {
        OpOutput out;
        out.results.push_back(
            campaign::run_coordinated_campaign(spec_, 1).analysis);
        return {Reference{render(out).at(0), out.results.at(0).samples_per_alg}};
    }

private:
    static constexpr std::size_t kShards = 4;

    [[nodiscard]] std::uint64_t listed_clustering_seed(std::uint64_t seed) const {
        const std::string path = paths_.refs + "/adaptive-clustering-seeds.txt";
        std::istringstream lines(read_file(path));
        std::vector<std::uint64_t> seeds;
        std::string line;
        while (std::getline(lines, line)) seeds.push_back(str::parse_u64(line, path));
        if (seeds.empty()) throw Error(path + " lists no seed");
        return seeds[seed % seeds.size()];
    }

    campaign::CampaignSpec spec_;
};

// ---------------------------------------------------------------------------
// cache: the CI plan at fixed N, three cached campaigns per op from an empty
// cache directory — a miss, an exact hit and a prefix extension.
// ---------------------------------------------------------------------------
class CacheWorkload final : public Workload {
public:
    CacheWorkload(std::uint64_t seed, const Size& size, const Paths& paths)
        : Workload(seed, paths), dir_(paths.work + "/cache") {
        base_.name = "relbench-cache";
        shift_seeds(base_, seed);
        apply_size(base_, size);
        extended_ = base_;
        extended_.measurements = 40;
        extended_.validate();
    }

    void prepare() override { std::filesystem::remove_all(dir_); }

    OpOutput run() override {
        cache::ResultCache result_cache(cache::CacheConfig{dir_, 0, 0});
        OpOutput out;
        for (const campaign::CampaignSpec* spec : tiers()) {
            const Counters before = Counters::now();
            cache::CachedRunResult result = cache::run_campaign_cached(
                *spec, result_cache, kShards, kShards);
            out.samples_drawn.push_back(Counters::now().since(before).samples);
            out.hit_kinds.emplace_back(cache::to_string(result.cache));
            out.results.push_back(std::move(result.analysis));
        }
        return out;
    }

    /// cache::run_campaign_cached as its public steps: lookup, then the
    /// tier's measurement and clustering, then store.
    OpOutput run_traced(Layers& layers) override {
        const Counters before = Counters::now();
        const Clock::time_point start = Clock::now();
        cache::ResultCache result_cache(cache::CacheConfig{dir_, 0, 0});
        Tally tally;
        OpOutput out;
        double lookup_s = 0.0;
        double store_s = 0.0;
        double served = 0.0;
        std::uint64_t seen[3] = {0, 0, 0}; // by HitKind: miss, exact, prefix
        for (const campaign::CampaignSpec* spec : tiers()) {
            const Counters tier_before = Counters::now();
            const Clock::time_point tier_start = Clock::now();
            Clock::time_point step = Clock::now();
            cache::CacheLookup lookup = result_cache.lookup(*spec);
            lookup_s += seconds_since(step);
            ++seen[static_cast<std::size_t>(lookup.kind)];
            core::AnalysisResult result;
            bool store = true;
            if (lookup.kind == cache::HitKind::Exact) {
                result = timed_analysis(*spec, std::move(lookup.merged), tally);
                served += static_cast<double>(result.total_samples);
                store = false;
            } else if (lookup.kind == cache::HitKind::Prefix) {
                campaign::GlobalSampleSource bundle(*spec);
                const std::uint64_t drawn_before = tally.drawn;
                TimingSource source(bundle.source(), tally);
                cache::CachedSampleSource replay(source, lookup.merged);
                core::MeasurementSet measured =
                    core::measure_all(replay, spec->measurements);
                served += static_cast<double>(replay.served());
                result = timed_analysis(*spec, std::move(measured), tally);
                require_agreement(
                    "prefix-tier samples drawn", tally.drawn - drawn_before,
                    Counters::now().since(tier_before).samples);
            } else {
                result = timed_campaign(*spec, kShards, kShards, tally);
            }
            if (store) {
                step = Clock::now();
                result_cache.store(*spec, result.measurements);
                store_s += seconds_since(step);
            }
            layers[std::string("cache.") + cache::to_string(lookup.kind) +
                   "_s"] += seconds_since(tier_start);
            out.samples_drawn.push_back(
                Counters::now().since(tier_before).samples);
            out.hit_kinds.emplace_back(cache::to_string(lookup.kind));
            out.results.push_back(std::move(result));
        }
        layers["traced_wall_s"] = seconds_since(start);

        const Counters delta = Counters::now().since(before);
        require_agreement("cache misses", seen[0], delta.misses);
        require_agreement("cache exact hits", seen[1], delta.hits);
        require_agreement("cache prefix extensions", seen[2], delta.extensions);
        publish(tally, delta, base_, base_.variants().size(), true, layers);
        layers["cache.lookup_s"] = lookup_s;
        layers["cache.store_s"] = store_s;
        layers["cache.served"] = served;
        layers["cache.bytes"] = static_cast<double>(result_cache.stats().bytes);
        layers["unaccounted_s"] =
            layers["traced_wall_s"] - lookup_s - store_s - tally.shards_s -
            tally.merge_s - tally.draw_s - tally.cluster_wall_s;
        return out;
    }

    std::string check(const OpOutput& out, const std::vector<std::string>& csvs,
                      const std::vector<Reference>& refs) const override {
        static const char* const kExpected[3] = {"miss", "exact", "prefix"};
        const std::size_t p = base_.variants().size();
        const std::uint64_t drawn[3] = {
            p * base_.measurements, 0,
            p * (extended_.measurements - base_.measurements)};
        if (csvs.size() != 3 || out.hit_kinds.size() != 3) {
            return "cache: an op must make three cached campaign calls";
        }
        for (std::size_t tier = 0; tier < 3; ++tier) {
            const std::string what = std::string("cache ") + kExpected[tier];
            if (out.hit_kinds[tier] != kExpected[tier]) {
                return what + ": the lookup returned '" + out.hit_kinds[tier] +
                       "'";
            }
            if (std::string why =
                    compare_bytes(what, csvs[tier], refs.at(tier).csv);
                !why.empty()) {
                return why;
            }
            if (std::string why =
                    compare_count(what, out.samples_drawn.at(tier), drawn[tier]);
                !why.empty()) {
                return why;
            }
        }
        return {};
    }

    std::vector<Reference> committed_references() const override {
        if (!std::filesystem::exists(ref_path(""))) return {};
        // The default seed's N = 30 clustering is the repository's golden.
        const std::string n30 =
            seed_ == 0 ? paths_.source_root + "/ci/golden/campaign_clusters.csv"
                       : ref_path("cache-n30.csv");
        Reference cold{read_file(n30), {}};
        return {cold, cold, Reference{read_file(ref_path("cache-n40.csv")), {}}};
    }

    std::vector<Reference> independent_references() override {
        OpOutput out;
        out.results.push_back(campaign::run_campaign(base_, 1, 1));
        out.results.push_back(campaign::run_campaign(extended_, 1, 1));
        const std::vector<std::string> csvs = render(out);
        return {Reference{csvs[0], {}}, Reference{csvs[0], {}},
                Reference{csvs[1], {}}};
    }

private:
    static constexpr std::size_t kShards = 2; // and as many workers

    [[nodiscard]] std::vector<const campaign::CampaignSpec*> tiers() const {
        return {&base_, &base_, &extended_};
    }

    campaign::CampaignSpec base_;     ///< N = 30.
    campaign::CampaignSpec extended_; ///< N = 40, same plan otherwise.
    std::string dir_;
};

} // namespace

Workload::Workload(std::uint64_t seed, Paths paths)
    : seed_(seed), paths_(std::move(paths)) {}

std::string Workload::ref_path(const std::string& name) const {
    return paths_.refs + "/seed-" + std::to_string(seed_) + "/" + name;
}

std::vector<std::string> Workload::render(const OpOutput& out) const {
    const std::string path = paths_.work + "/clustering.csv";
    std::vector<std::string> csvs;
    for (const core::AnalysisResult& result : out.results) {
        core::write_clustering_csv(result.clustering, result.measurements, path);
        csvs.push_back(read_file(path));
    }
    return csvs;
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"fixed", "adaptive",
                                                   "cache"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, const Size& size,
                                        const Paths& paths) {
    if (name == "fixed") return std::make_unique<FixedWorkload>(seed, size, paths);
    if (name == "adaptive") {
        return std::make_unique<AdaptiveWorkload>(seed, size, paths);
    }
    if (name == "cache") return std::make_unique<CacheWorkload>(seed, size, paths);
    throw relperf::InvalidArgument("unknown workload '" + name +
                                   "' (fixed, adaptive, cache)");
}

const std::vector<std::string>& layer_names() {
    static const std::vector<std::string> names = {
        "comparator.calls",  "comparator.busy_s", "comparator.ns_per_call",
        "cluster.wall_s",    "cluster.self_s",    "engine.rounds",
        "engine.clusterings", "engine.comparisons", "engine.replayed",
        "engine.round_s",    "engine.final_s",    "sim.draw_calls",
        "sim.samples",       "sim.draw_s",        "campaign.shards_s",
        "campaign.merge_s",  "cache.miss_s",      "cache.exact_s",
        "cache.prefix_s",    "cache.lookup_s",    "cache.store_s",
        "cache.bytes",       "cache.served",      "traced_wall_s",
        "trace_overhead",    "unaccounted_s",     "calibration_s"};
    return names;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot read " + path);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

} // namespace relbench
