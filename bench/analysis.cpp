//! Analysis hot paths at scale: comparator score ns/op (counting select
//! against an in-bench loop that materializes and sorts every resample; the
//! bench fails if the two score differently on the same stream), clusterer
//! wall time vs p (sparse tallies, with the dense O(p^2) oracle and the
//! all-cores repetition pool at small p; the bench fails if the pool's
//! clustering differs from the serial one),
//! an adaptive engine run end to end, coordinated-stopping sample budgets vs
//! shard count for both stopping rules, and the result cache's
//! cold/exact-hit/prefix-extension run costs (the bench fails if the exact
//! hit's clustering differs from the cold run's).
//! This bench times its own loops with steady_clock (allowlisted in
//! ci/lint_allow.txt); nothing here feeds measurement CSVs.

#include "bench_common.hpp"
#include "cache/cached_campaign.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/bootstrap_comparator.hpp"
#include "core/clustering.hpp"
#include "core/measurement_engine.hpp"
#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "support/csv.hpp"
#include "support/str.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

using namespace relperf;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/// One CSV row; every section appends its numbers here.
struct Row {
    std::string section;
    std::string metric;
    std::string param;
    double value;
};

/// The comparator loop as specified: materialize each round's resample
/// pair, sort both, read the quantile off the sorted data. Consumes the rng
/// in the same order as BootstrapComparator::score, so the two paths produce
/// identical scores on identical streams — the timing difference is purely
/// the selection strategy.
double legacy_score(const core::BootstrapComparatorConfig& config,
                    std::span<const double> a, std::span<const double> b,
                    stats::Rng& rng) {
    std::vector<double> res_a;
    std::vector<double> res_b;
    long wins_a = 0;
    long wins_b = 0;
    for (std::size_t r = 0; r < config.rounds; ++r) {
        stats::resample(a, a.size(), rng, res_a);
        stats::resample(b, b.size(), rng, res_b);
        std::sort(res_a.begin(), res_a.end());
        std::sort(res_b.begin(), res_b.end());
        const double q = rng.uniform(config.quantile_lo, config.quantile_hi);
        const double qa = stats::quantile_sorted(res_a, q);
        const double qb = stats::quantile_sorted(res_b, q);
        const double band =
            config.tie_epsilon * std::min(std::fabs(qa), std::fabs(qb));
        if (std::fabs(qa - qb) <= band) continue;
        if (qa < qb) {
            ++wins_a;
        } else {
            ++wins_b;
        }
    }
    return static_cast<double>(wins_a - wins_b) /
           static_cast<double>(config.rounds);
}

std::vector<double> lognormal_sample(double median, std::size_t n,
                                     std::uint64_t seed) {
    stats::Rng rng(seed);
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(median * rng.lognormal(0.0, 0.2));
    }
    return out;
}

/// p algorithms in overlapping tiers, `samples` values each.
core::MeasurementSet tiered_set(std::size_t p, std::size_t samples,
                                std::uint64_t seed) {
    stats::Rng rng(seed);
    core::MeasurementSet set;
    for (std::size_t i = 0; i < p; ++i) {
        const double base = 1.0 + 0.25 * static_cast<double>(i % 7);
        std::vector<double> values;
        values.reserve(samples);
        for (std::size_t k = 0; k < samples; ++k) {
            values.push_back(base * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)));
        }
        set.add("alg" + std::to_string(i), std::move(values));
    }
    return set;
}

/// Deterministic engine source: two clearly separated tiers that freeze
/// after a couple of rounds, plus four closely overlapping "wobbler"
/// algorithms whose ranks keep flipping — they extend to max_n, so most
/// rounds re-cluster with a large frozen majority.
class SyntheticSource final : public core::SampleSource {
public:
    explicit SyntheticSource(std::size_t count) : count_(count),
                                                  position_(count, 0) {}

    [[nodiscard]] std::size_t count() const override { return count_; }
    [[nodiscard]] std::string name(std::size_t index) const override {
        return "alg" + std::to_string(index);
    }
    [[nodiscard]] std::vector<double> draw(std::size_t index,
                                           std::size_t n) override {
        const bool wobbler = index + 4 >= count_;
        std::vector<double> out;
        out.reserve(n);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t pos = position_[index]++;
            if (wobbler) {
                // Upward-drifting mean, slope staggered per algorithm: every
                // batch of extension samples shifts the empirical quantiles,
                // so the wobblers keep crossing each other and the tiers —
                // their final rank never stays stable and they measure to
                // max_n while the tiers sit frozen.
                const double slope = 0.02 + 0.005 * static_cast<double>(
                                                        index % 4);
                out.push_back(1.0 + slope * static_cast<double>(pos) +
                              0.01 * static_cast<double>((pos * 13) % 5));
            } else {
                const double base = index < count_ / 2 ? 1.0 : 2.0;
                out.push_back(base * (1.0 + 0.002 * static_cast<double>(
                                                        (pos * 7) % 11)));
            }
        }
        return out;
    }

private:
    std::size_t count_;
    std::vector<std::size_t> position_;
};

} // namespace

int main(int argc, char** argv) {
    support::CliParser cli("analysis — comparator/clusterer/engine hot paths");
    bench::add_common_options(cli);
    cli.add_option("n", "samples per algorithm (comparator section)", "30");
    cli.add_option("rounds", "bootstrap rounds per comparison", "100");
    cli.add_option("iters", "score calls per timing measurement", "200");
    if (!cli.parse(argc, argv)) return 0;

    const auto n = static_cast<std::size_t>(cli.value_int("n"));
    const auto iters = static_cast<std::size_t>(cli.value_int("iters"));
    const auto seed = static_cast<std::uint64_t>(cli.value_int("seed"));
    core::BootstrapComparatorConfig comparator_config;
    comparator_config.rounds = static_cast<std::size_t>(cli.value_int("rounds"));

    std::vector<Row> rows;
    double checksum = 0.0; // consumes every score so nothing is optimized out

    // --- Section 1: comparator score ns/op, new path vs legacy loop. ------
    bench::section(str::format("Comparator score (n = %zu, rounds = %zu)", n,
                               comparator_config.rounds));
    {
        const std::vector<double> a = lognormal_sample(1.0, n, seed + 1);
        const std::vector<double> b = lognormal_sample(1.05, n, seed + 2);
        const core::BootstrapComparator comparator(comparator_config);
        core::BootstrapScratch scratch;

        const auto time_scores = [&](auto&& score_once) {
            double best = 0.0;
            for (int rep = 0; rep < 3; ++rep) { // best-of-3 vs scheduler noise
                stats::Rng rng(seed + 99);
                const auto start = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < iters; ++i) {
                    checksum += score_once(rng);
                }
                const double s = seconds_since(start);
                if (rep == 0 || s < best) best = s;
            }
            return best * 1e9 / static_cast<double>(iters);
        };

        stats::Rng rng_new(seed + 99);
        stats::Rng rng_legacy(seed + 99);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < iters; ++i) {
            const double fast = comparator.score(a, b, rng_new, scratch);
            const double slow =
                legacy_score(comparator_config, a, b, rng_legacy);
            if (std::bit_cast<std::uint64_t>(fast) !=
                std::bit_cast<std::uint64_t>(slow)) {
                ++mismatches;
            }
        }
        if (mismatches > 0 || rng_new.bits() != rng_legacy.bits()) {
            std::fprintf(stderr,
                         "error: counting select and the legacy loop "
                         "disagree on %zu of %zu scores (or on the rng "
                         "state after them)\n",
                         mismatches, iters);
            return 1;
        }

        const double new_ns = time_scores([&](stats::Rng& rng) {
            return comparator.score(a, b, rng, scratch);
        });
        const double legacy_ns = time_scores([&](stats::Rng& rng) {
            return legacy_score(comparator_config, a, b, rng);
        });
        const double speedup = legacy_ns > 0.0 ? legacy_ns / new_ns : 0.0;

        std::printf("  counting select       : %10.1f ns/score\n", new_ns);
        std::printf("  legacy two-full-sorts : %10.1f ns/score\n", legacy_ns);
        std::printf("  speedup               : %10.2fx\n", speedup);
        const std::string param =
            str::format("n=%zu,rounds=%zu", n, comparator_config.rounds);
        rows.push_back({"comparator", "score_ns_per_op", param, new_ns});
        rows.push_back({"comparator", "legacy_score_ns_per_op", param,
                        legacy_ns});
        rows.push_back({"comparator", "speedup", param, speedup});
    }

    // --- Section 2: clusterer wall time vs p (sparse, dense at small p). --
    bench::section("Clusterer wall time vs p (Rep = 4, rounds = 10)");
    {
        core::BootstrapComparatorConfig cheap = comparator_config;
        cheap.rounds = 10;
        const core::BootstrapComparator comparator(cheap);
        for (const std::size_t p : {std::size_t{64}, std::size_t{256},
                                    std::size_t{1024}}) {
            const core::MeasurementSet set = tiered_set(p, 5, seed + p);
            const core::RelativeClusterer clusterer(
                comparator, core::ClustererConfig{4, seed + 7});

            auto start = std::chrono::steady_clock::now();
            const core::Clustering sparse = clusterer.cluster(set);
            const double sparse_ms = seconds_since(start) * 1e3;
            checksum += sparse.final_assignment[0].score;
            rows.push_back({"clusterer", "sparse_wall_ms",
                            "p=" + std::to_string(p), sparse_ms});

            if (p <= 256) { // the dense oracle's p^2 matrix stays affordable
                start = std::chrono::steady_clock::now();
                const core::Clustering dense = clusterer.cluster_dense(set);
                const double dense_ms = seconds_since(start) * 1e3;
                checksum += dense.final_assignment[0].score;
                rows.push_back({"clusterer", "dense_wall_ms",
                                "p=" + std::to_string(p), dense_ms});

                // The repetitions on every hardware thread (capped at Rep):
                // the same clustering bit for bit, or the bench fails.
                const core::ClustererConfig all_cores{4, seed + 7, 0};
                const core::RelativeClusterer pooled(comparator, all_cores);
                start = std::chrono::steady_clock::now();
                const core::Clustering parallel = pooled.cluster(set);
                const double parallel_ms = seconds_since(start) * 1e3;
                if (!(parallel == sparse)) {
                    std::fprintf(stderr,
                                 "error: the clustering on %zu threads "
                                 "differs from the serial one at p = %zu\n",
                                 all_cores.threads(), p);
                    return 1;
                }
                rows.push_back({"clusterer", "sparse_wall_ms",
                                str::format("p=%zu,workers=%zu", p,
                                            all_cores.threads()),
                                parallel_ms});
                std::printf("  p = %5zu : sparse %8.1f ms   dense %8.1f ms   "
                            "sparse on %zu threads %8.1f ms\n",
                            p, sparse_ms, dense_ms, all_cores.threads(),
                            parallel_ms);
            } else {
                std::printf("  p = %5zu : sparse %8.1f ms   dense (skipped, "
                            "O(p^2) memory)\n",
                            p, sparse_ms);
            }
        }
    }

    // --- Section 3: adaptive engine end to end (32 algorithms). ---------
    // The tiers freeze after a few rounds while the drifting wobblers
    // extend, so this shows the whole pipeline: measurement plus one
    // re-clustering per round.
    bench::section("Adaptive engine end-to-end (32 algorithms)");
    {
        core::AdaptiveConfig adaptive;
        adaptive.min_n = 5;
        adaptive.max_n = 60;
        adaptive.batch = 3;
        adaptive.stability_rounds = 2;
        core::BootstrapComparatorConfig cheap = comparator_config;
        cheap.rounds = 25;
        const core::MeasurementEngine engine(
            adaptive, cheap, core::ClustererConfig{20, seed + 13});

        SyntheticSource source(32);
        const auto start = std::chrono::steady_clock::now();
        const core::EngineResult result = engine.run(source);
        const double wall_ms = seconds_since(start) * 1e3;
        checksum += result.clustering.final_assignment[0].score;

        std::printf("  %8.1f ms over %zu rounds — %s\n", wall_ms,
                    result.rounds,
                    core::render_savings(result.total_samples,
                                         result.fixed_n_samples)
                        .c_str());
        const std::string param = "p=32";
        rows.push_back({"engine", "run_wall_ms", param, wall_ms});
        rows.push_back({"engine", "rounds", param,
                        static_cast<double>(result.rounds)});
        rows.push_back({"engine", "saved_samples", param,
                        static_cast<double>(result.saved_samples())});
    }

    // --- Section 4: coordinated stopping — sample budget vs shard count. --
    // The coordinator's stop decisions watch the *merged* clustering, so the
    // per-algorithm counts should be K-invariant by construction; this
    // section measures that claim (and the two stopping rules' budgets)
    // instead of assuming it. The spec uses 4 task sizes = 16 placement
    // algorithms so K = 16 is admissible — the sharder caps K at the
    // variant count.
    bench::section("Coordinated stopping (16 algorithms, K in {1, 4, 16})");
    {
        campaign::CampaignSpec spec;
        spec.name = "bench-coordination";
        spec.sizes = {40, 60, 90, 140};
        spec.iters = 6;
        spec.measurements = 30;
        spec.measurement_seed = seed + 23;
        spec.adaptive_min = 10;
        spec.adaptive_batch = 5;
        spec.adaptive_coordinated = true;
        spec.clustering_repetitions = 40;
        spec.bootstrap_rounds = 50;

        for (const double confidence : {0.0, 0.95}) {
            spec.adaptive_confidence = confidence;
            const char* rule = confidence == 0.0 ? "stability" : "confidence";
            for (const std::size_t k :
                 {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
                const auto start = std::chrono::steady_clock::now();
                const campaign::CoordinatedCampaignResult coordinated =
                    campaign::run_coordinated_campaign(spec, k);
                const double wall_ms = seconds_since(start) * 1e3;
                checksum +=
                    coordinated.analysis.clustering.final_assignment[0].score;

                const std::size_t total = coordinated.analysis.total_samples;
                const std::size_t saved =
                    coordinated.analysis.fixed_n_samples - total;
                std::printf("  %-10s K = %2zu : %3zu/%zu samples, saved %3zu "
                            "(%zu rounds, %6.1f ms)\n",
                            rule, k, total,
                            coordinated.analysis.fixed_n_samples, saved,
                            coordinated.rounds, wall_ms);
                const std::string param =
                    str::format("rule=%s,K=%zu", rule, k);
                rows.push_back({"coordination", "total_samples", param,
                                static_cast<double>(total)});
                rows.push_back({"coordination", "saved_samples", param,
                                static_cast<double>(saved)});
                rows.push_back({"coordination", "rounds", param,
                                static_cast<double>(coordinated.rounds)});
                rows.push_back({"coordination", "run_wall_ms", param,
                                wall_ms});
            }
        }
    }

    // --- Section 5: result cache — cold run vs exact hit vs extension. ----
    // The cache's pitch in numbers: a repeat query pays neither measurement
    // nor clustering (the exact hit rebuilds the stored clustering from its
    // rank tally), a budget bump pays only the delta (prefix extension).
    // Sim measurement is cheap, so the cold and prefix wall times mostly
    // show the analysis floor; the samples_from_cache rows carry the
    // avoided measurement work. The bench fails if the exact hit's
    // clustering differs from the cold run's.
    bench::section("Result cache (fixed-N sim campaign, budget 40 -> 60)");
    {
        namespace fs = std::filesystem;
        const std::string dir =
            (fs::temp_directory_path() /
             str::format("relperf_bench_cache_%llu",
                         static_cast<unsigned long long>(seed)))
                .string();
        fs::remove_all(dir);

        campaign::CampaignSpec spec;
        spec.name = "bench-cache";
        spec.sizes = {40, 60, 90};
        spec.iters = 6;
        spec.measurements = 40;
        spec.measurement_seed = seed + 31;
        spec.clustering_repetitions = 40;
        spec.bootstrap_rounds = 50;
        cache::ResultCache result_cache(cache::CacheConfig{dir, 0, 0});

        const auto timed_run = [&](const campaign::CampaignSpec& plan,
                                   const char* tier) {
            const auto start = std::chrono::steady_clock::now();
            const cache::CachedRunResult run =
                cache::run_campaign_cached(plan, result_cache, 1);
            const double wall_ms = seconds_since(start) * 1e3;
            checksum += run.analysis.clustering.final_assignment[0].score;
            std::printf("  %-6s : %8.1f ms — %s%s, %zu/%zu samples from "
                        "cache\n",
                        tier, wall_ms, cache::to_string(run.cache),
                        run.stored_clustering ? " (stored clustering)" : "",
                        run.samples_from_cache, run.analysis.total_samples);
            const std::string param = std::string("tier=") + tier;
            rows.push_back({"cache", "run_wall_ms", param, wall_ms});
            rows.push_back({"cache", "samples_from_cache", param,
                            static_cast<double>(run.samples_from_cache)});
            return run;
        };

        // miss: measures and publishes; exact hit: zero executor draws and
        // zero comparisons.
        const cache::CachedRunResult cold = timed_run(spec, "cold");
        const cache::CachedRunResult exact = timed_run(spec, "exact");
        if (exact.analysis.clustering != cold.analysis.clustering) {
            std::fprintf(stderr,
                         "bench_analysis: the cache's exact hit clustering "
                         "differs from the cold run's\n");
            fs::remove_all(dir);
            return 1;
        }
        campaign::CampaignSpec bigger = spec;
        bigger.measurements = 60;
        (void)timed_run(bigger, "prefix"); // extension: only the delta drawn
        fs::remove_all(dir);
    }

    std::printf("\nchecksum %.6f (anti-DCE; value carries no meaning)\n",
                checksum);

    if (const auto csv_path = cli.value_optional("csv")) {
        support::CsvWriter csv(*csv_path, {"section", "metric", "param",
                                           "value"});
        for (const Row& row : rows) {
            csv.add_row({row.section, row.metric, row.param,
                         str::format("%.17g", row.value)});
        }
        std::printf("raw results written to %s\n", csv_path->c_str());
    }
    return 0;
}
