//! Ablation A4: the same scientific code clustered on different simulated
//! edge platforms (paper Sec. I: the clusters "are specific to a given
//! computing architecture"). Uses the analytic cost model with the built-in
//! presets: Xeon+P100, Raspberry-Pi+LAN-server, smartphone+mobile-GPU and a
//! symmetric CPU-only pair.
//!
//! Each platform runs as one campaign::run_campaign: `--shards K` splits its
//! assignment list into K shards executed across `--workers` threads, and
//! the merged clustering is bit-identical to the single-process path for
//! every K (pass --verify to check that in-process). The timing line covers
//! the whole campaigns, measurement and clustering; on a multi-core host,
//! larger --shards/--workers shrink it.

#include "bench_common.hpp"
#include "campaign/campaign.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "support/csv.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workloads/chain.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

using namespace relperf;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

int main(int argc, char** argv) try {
    support::CliParser cli("platform_sweep — clusters across edge platforms");
    bench::add_common_options(cli);
    cli.add_option("n", "measurements per algorithm", "30");
    cli.add_option("sizes", "comma-separated task sizes", "64,256");
    cli.add_option("iters", "loop iterations per task", "5");
    cli.add_option("shards", "split each platform's campaign into K shards", "1");
    cli.add_option("workers", "shard worker threads (0 = all cores)", "0");
    cli.add_flag("verify", "also run the single-process path and check the "
                           "sharded clustering is identical");
    cli.add_option("variants", "per-task backend axis, comma-separated "
                               "(grows each campaign to the (2B)^k placement "
                               "x backend variants)", "");
    cli.add_flag("adaptive", "measure incrementally, stopping algorithms "
                             "whose class membership stabilized (--n is the "
                             "per-algorithm cap)");
    cli.add_option("min-n", "adaptive: measurements before any early stop "
                            "(implies --adaptive; default 10)", "");
    cli.add_option("batch", "adaptive: measurements added per round (implies "
                            "--adaptive; default 5)", "");
    cli.add_option("stability", "adaptive: consecutive stable clusterings "
                                "before an algorithm stops (implies "
                                "--adaptive; default 2)", "");
    cli.add_option("trace", "write a Chrome trace-event JSON of the sweep "
                            "here", "");
    cli.add_option("metrics", "write a Prometheus text-format metrics dump "
                              "here", "");
    bench::add_backend_options(cli);
    if (!cli.parse(argc, argv)) return 0;
    if (!bench::apply_backend_options(cli)) return 0;

    // Metrics back the adaptive savings summary; tracing only when asked.
    obs::set_metrics_enabled(true);
    const auto trace_path = cli.value_optional("trace");
    const auto metrics_path = cli.value_optional("metrics");
    if (trace_path) obs::set_tracing_enabled(true);
    obs::set_provenance("command", "bench_platform_sweep");

    const std::vector<std::size_t> sizes =
        str::parse_size_list(cli.value("sizes"), "--sizes");
    const std::size_t iters = str::parse_size(cli.value("iters"), "--iters");
    const std::size_t n = str::parse_size(cli.value("n"), "--n");
    const std::size_t shards = str::parse_size(cli.value("shards"), "--shards");
    const std::size_t workers = str::parse_size(cli.value("workers"), "--workers");
    const core::AnalysisConfig config = bench::analysis_config(cli, n);

    std::vector<std::string> variant_backends;
    if (const auto axis = cli.value_optional("variants")) {
        variant_backends = str::parse_name_list(*axis, "--variants");
    }

    const auto min_n_opt = cli.value_optional("min-n");
    const auto batch_opt = cli.value_optional("batch");
    const auto stability_opt = cli.value_optional("stability");
    const bool adaptive =
        cli.flag("adaptive") || min_n_opt || batch_opt || stability_opt;
    if (adaptive && cli.flag("verify")) {
        // The stopping rule decides per shard, so sharded-vs-solo adaptive
        // runs legitimately keep different counts; the bit-identity check
        // only holds for fixed-N campaigns.
        std::fputs("error: --verify checks bit-identity of the sharded path "
                   "and only applies to fixed-N sweeps (drop --adaptive)\n",
                   stderr);
        return 2;
    }
    // Zero would silently fall back to the fixed-N path while still
    // claiming an adaptive run in the report: reject it up front. Absent
    // knobs take the engine's own defaults.
    const core::AdaptiveConfig engine_defaults;
    const std::size_t adaptive_min =
        min_n_opt ? str::parse_positive_size(*min_n_opt, "--min-n")
                  : engine_defaults.min_n;
    const std::size_t adaptive_batch =
        batch_opt ? str::parse_positive_size(*batch_opt, "--batch")
                  : engine_defaults.batch;
    const std::size_t adaptive_stability =
        stability_opt ? str::parse_positive_size(*stability_opt, "--stability")
                      : engine_defaults.stability_rounds;
    // The measured algorithm list (identical across platforms): plain
    // placements, or placement x backend variants when an axis was given.
    const std::vector<workloads::VariantAssignment> variants =
        variant_backends.empty()
            ? workloads::enumerate_assignments(sizes.size())
            : workloads::enumerate_variants(sizes.size(), variant_backends);

    std::vector<std::string> header = {"Algorithm"};
    std::vector<core::AnalysisResult> results;
    double campaign_seconds = 0.0;

    for (const std::string& preset : campaign::platform_preset_names()) {
        campaign::CampaignSpec spec;
        spec.name = preset;
        spec.sizes = sizes;
        spec.iters = iters;
        spec.platform = preset;
        spec.measurements = n;
        spec.measurement_seed = config.measurement_seed;
        if (const auto backend = cli.value_optional("backend")) {
            spec.backend = *backend; // recorded in the plan (and its hash)
        }
        spec.variant_backends = variant_backends;
        if (adaptive) {
            spec.adaptive_min = adaptive_min;
            spec.adaptive_batch = adaptive_batch;
            spec.adaptive_stability = adaptive_stability;
        }
        spec.shards = shards;
        spec.clustering_repetitions = config.clustering.repetitions;
        spec.clustering_seed = config.clustering.seed;

        const auto start = std::chrono::steady_clock::now();
        results.push_back(campaign::run_campaign(spec, shards, workers));
        campaign_seconds += seconds_since(start);

        if (cli.flag("verify")) {
            const core::AnalysisResult solo = campaign::run_campaign(spec, 1, 1);
            bool identical =
                solo.clustering.cluster_count() ==
                results.back().clustering.cluster_count();
            for (std::size_t alg = 0; identical && alg < variants.size();
                 ++alg) {
                identical = solo.clustering.final_rank(alg) ==
                            results.back().clustering.final_rank(alg);
            }
            std::printf("%-32s sharded (K=%zu) clustering %s single-process\n",
                        preset.c_str(), shards,
                        identical ? "==" : "!=");
            if (!identical) {
                std::fputs("error: sharded clustering diverged\n", stderr);
                return 1;
            }
        }
        header.push_back(campaign::platform_preset(spec.platform).name);
    }

    bench::section("Final class of every split, per platform (chain sizes " +
                   cli.value("sizes") + ")");
    support::AsciiTable table(header);
    for (std::size_t alg = 0; alg < variants.size(); ++alg) {
        std::vector<std::string> row = {variants[alg].alg_name()};
        for (const core::AnalysisResult& result : results) {
            row.push_back(
                "C" + std::to_string(result.clustering.final_rank(alg)) + " (" +
                str::human_seconds(result.measurements.summary(alg).mean) + ")");
        }
        table.add_row(std::move(row));
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf("\ncampaigns (measure + cluster): %zu platforms x %zu "
                "shards, %s workers -> %s\n",
                campaign::platform_preset_names().size(), shards,
                workers == 0 ? "all" : std::to_string(workers).c_str(),
                str::human_seconds(campaign_seconds).c_str());
    if (adaptive) {
        // The registry counters were fed by the engine as the campaigns
        // ran (--verify re-runs would double-feed them, but adaptive +
        // --verify is rejected above); reading them here keeps this line
        // and a --metrics dump mutually consistent by construction.
        const obs::Metrics& m = obs::metrics();
        std::printf("adaptive (min %zu, batch %zu, stability %zu): %s\n",
                    adaptive_min, adaptive_batch, adaptive_stability,
                    core::render_savings(m.samples_total.value(),
                                         m.samples_fixed_n_total.value())
                        .c_str());
    }

    if (const auto csv_path = cli.value_optional("csv")) {
        support::CsvWriter csv(*csv_path, {"platform", "algorithm",
                                           "final_cluster", "mean_seconds"});
        for (std::size_t p = 0; p < results.size(); ++p) {
            for (std::size_t alg = 0; alg < variants.size(); ++alg) {
                csv.add_row({campaign::platform_preset_names()[p],
                             variants[alg].alg_name(),
                             std::to_string(
                                 results[p].clustering.final_rank(alg)),
                             str::format("%.12g",
                                         results[p]
                                             .measurements.summary(alg)
                                             .mean)});
            }
        }
        std::printf("raw results written to %s\n", csv_path->c_str());
    }

    std::printf(
        "\nReading: offload economics flip across platforms — the Raspberry Pi\n"
        "gains from offloading anything sizable despite its slow link, the\n"
        "smartphone's mobile GPU only pays off for the large task, and the\n"
        "symmetric CPU pair clusters every split together.\n");

    if (trace_path) {
        obs::write_trace_json(*trace_path);
        std::printf("trace written to %s (%zu events)\n", trace_path->c_str(),
                    obs::trace_event_count());
    }
    if (metrics_path) {
        std::ofstream out(*metrics_path);
        out << obs::registry().render_prometheus();
        out.close();
        if (!out) {
            std::fprintf(stderr, "error: failed writing metrics to %s\n",
                         metrics_path->c_str());
            return 1;
        }
        std::printf("metrics written to %s\n", metrics_path->c_str());
    }
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
