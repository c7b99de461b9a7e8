//! Analysis hot paths: comparator score ns/op (counting select against an
//! in-bench loop that materializes and sorts every resample) and clusterer
//! wall time vs p (serial, and on every hardware thread at small p).
//! The bench gates itself: it exits 1 if the two comparator paths score
//! differently on the same stream, if counting select is not more than
//! 2x faster than the sorting loop, or if the all-cores clustering differs
//! from the serial one. Deterministic counts (engine rounds, coordinated
//! sample budgets, cache tiers) are pinned by gtests, not here.
//! This bench times its own loops with steady_clock (allowlisted in
//! ci/lint_allow.txt); nothing here feeds measurement CSVs.

#include "bench_common.hpp"
#include "core/bootstrap_comparator.hpp"
#include "core/clustering.hpp"
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
#include <exception>
#include <string>
#include <vector>

using namespace relperf;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/// Counting select must beat the sorting loop by more than this factor. At
/// the default --n 30 it runs the byte tally's word select and measured
/// 8.9-11.5x on a 4-vCPU Xeon VM, GCC 12 Release; the margin leaves room
/// for noisy CI runners while still catching the fast path regressing
/// outright.
constexpr double kSpeedupFloor = 2.0;

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

} // namespace

int main(int argc, char** argv) try {
    support::CliParser cli("analysis — comparator/clusterer hot paths");
    bench::add_common_options(cli);
    cli.add_option("n", "samples per algorithm (comparator section)", "30");
    cli.add_option("rounds", "bootstrap rounds per comparison", "100");
    cli.add_option("iters", "score calls per timing measurement", "200");
    if (!cli.parse(argc, argv)) return 0;

    const std::size_t n = str::parse_positive_size(cli.value("n"), "--n");
    const std::size_t iters =
        str::parse_positive_size(cli.value("iters"), "--iters");
    const std::uint64_t seed = str::parse_u64(cli.value("seed"), "--seed");
    core::BootstrapComparatorConfig comparator_config;
    comparator_config.rounds =
        str::parse_positive_size(cli.value("rounds"), "--rounds");

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
        const double speedup = legacy_ns / new_ns;

        std::printf("  counting select       : %10.1f ns/score\n", new_ns);
        std::printf("  legacy two-full-sorts : %10.1f ns/score\n", legacy_ns);
        std::printf("  speedup               : %10.2fx\n", speedup);
        if (!(speedup > kSpeedupFloor)) { // a NaN fails too
            std::fprintf(stderr,
                         "error: counting select is %.2fx the sorting loop, "
                         "not above the %.1fx floor — the comparator fast "
                         "path has regressed\n",
                         speedup, kSpeedupFloor);
            return 1;
        }
        const std::string param =
            str::format("n=%zu,rounds=%zu", n, comparator_config.rounds);
        rows.push_back({"comparator", "score_ns_per_op", param, new_ns});
        rows.push_back({"comparator", "legacy_score_ns_per_op", param,
                        legacy_ns});
        rows.push_back({"comparator", "speedup", param, speedup});
    }

    // --- Section 2: clusterer wall time vs p (all cores at small p). -----
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
            const core::Clustering serial = clusterer.cluster(set);
            const double serial_ms = seconds_since(start) * 1e3;
            checksum += serial.final_assignment[0].score;
            rows.push_back({"clusterer", "sparse_wall_ms",
                            "p=" + std::to_string(p), serial_ms});
            if (p > 256) { // past p = 256 the serial run alone is timed
                std::printf("  p = %5zu : serial %8.1f ms\n", p, serial_ms);
                continue;
            }

            // The repetitions on every hardware thread (capped at Rep): the
            // same clustering bit for bit, or the bench fails.
            const core::ClustererConfig all_cores{4, seed + 7, 0};
            const core::RelativeClusterer pooled(comparator, all_cores);
            start = std::chrono::steady_clock::now();
            const core::Clustering parallel = pooled.cluster(set);
            const double parallel_ms = seconds_since(start) * 1e3;
            if (!(parallel == serial)) {
                std::fprintf(stderr,
                             "error: the clustering on %zu threads differs "
                             "from the serial one at p = %zu\n",
                             all_cores.threads(), p);
                return 1;
            }
            rows.push_back({"clusterer", "sparse_wall_ms",
                            str::format("p=%zu,workers=%zu", p,
                                        all_cores.threads()),
                            parallel_ms});
            std::printf("  p = %5zu : serial %8.1f ms   on %zu threads "
                        "%8.1f ms\n",
                        p, serial_ms, all_cores.threads(), parallel_ms);
        }
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
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
