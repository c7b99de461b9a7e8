//! relperf — command-line front end.
//!
//! Two families of modes:
//!
//! **Cluster an existing measurements CSV** (any source: real devices, other
//! harnesses):
//!
//!   $ relperf --input measurements.csv
//!   $ relperf --input measurements.csv --rep 200 --out clusters.csv --matrix
//!
//! **Sharded measurement campaigns** (see src/campaign/): describe the plan
//! once, run shards anywhere — possibly different machines — and merge the
//! shard files centrally. The merged clustering is bit-identical to a
//! single-process run of the same spec:
//!
//!   $ relperf --campaign-init plan.spec            # 1. emit the plan
//!   $ relperf --campaign plan.spec --shard 0/4 --out shard_0.csv
//!   $ relperf --campaign plan.spec --shard 1/4 --out shard_1.csv   # ... 2/4, 3/4
//!   $ relperf --campaign plan.spec --merge 'shard_*.csv'           # 3. cluster
//!   $ relperf --campaign plan.spec --run --shards 4 --workers 4  # one host
//!
//! Adaptive campaigns (--adaptive, --min-n/--max-n/--batch/--stability)
//! measure incrementally and stop algorithms whose performance-class
//! membership stabilized, reporting the measurements saved against the
//! fixed-N plan; --samples-csv records the per-algorithm counts.
//! --coordinated (with --run) coordinates the stopping across shards — the
//! coordinator re-clusters the merged measurements between rounds and
//! broadcasts the global stop-set, so per-algorithm counts are K-invariant;
//! --confidence <q> swaps the stability rule for the confidence-targeted
//! one, and --stopset-csv records the coordinator's per-round stop-set.
//!
//! Input format (written by core::write_measurements_csv, campaign shard
//! files and the experiment benches' --csv option; bench_micro_kernels is the
//! exception — its --csv emits google-benchmark's own CSV schema, which this
//! tool does not read):
//!
//!   algorithm,measurement_index,seconds
//!   algDDA,0,0.0406
//!   ...

#include "cache/cached_campaign.hpp"
#include "campaign/campaign.hpp"
#include "core/cluster_diff.hpp"
#include "core/io.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "linalg/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <cstdio>
#include <fstream>

using namespace relperf;

namespace {

/// Prints a note when a plan names backends this build does not have. Typos
/// die loudly when a shard *runs* (the registry error lists the registered
/// names); at init time an unknown name may be a backend of the machine the
/// spec ships to, so it only warns.
void warn_unregistered_backends(const campaign::CampaignSpec& spec) {
    std::vector<std::string> unknown;
    if (!linalg::has_backend(spec.backend)) unknown.push_back(spec.backend);
    for (const std::string& name : spec.variant_backends) {
        if (!linalg::has_backend(name)) unknown.push_back(name);
    }
    if (unknown.empty()) return;
    std::fprintf(stderr,
                 "note: backend%s '%s' %s not registered in this build "
                 "(registered: %s); shards must run on a build that has "
                 "%s\n",
                 unknown.size() > 1 ? "s" : "",
                 str::join(unknown, "', '").c_str(),
                 unknown.size() > 1 ? "are" : "is",
                 str::join(linalg::backend_names(), ", ").c_str(),
                 unknown.size() > 1 ? "them" : "it");
}

/// --cluster-diff old.csv,new.csv: compare performance-class memberships.
int cluster_diff(const std::string& pair) {
    const std::vector<std::string> paths = str::split(pair, ',');
    if (paths.size() != 2 || str::trim(paths[0]).empty() ||
        str::trim(paths[1]).empty()) {
        std::fputs("error: --cluster-diff expects 'old.csv,new.csv'\n",
                   stderr);
        return 2;
    }
    const std::string old_path(str::trim(paths[0]));
    const std::string new_path(str::trim(paths[1]));
    const core::FinalClusters old_clusters =
        core::read_final_clusters_csv(old_path);
    const core::FinalClusters new_clusters =
        core::read_final_clusters_csv(new_path);
    const core::ClusterDiff diff =
        core::diff_clusterings(old_clusters, new_clusters);
    std::printf("cluster-diff: %s (%zu algorithms) vs %s (%zu algorithms)\n",
                old_path.c_str(), old_clusters.algorithms.size(),
                new_path.c_str(), new_clusters.algorithms.size());
    std::fputs(core::render_cluster_diff(diff).c_str(), stdout);
    return diff.identical() ? 0 : 1;
}

/// Applies the --adaptive/--min-n/--max-n/--batch/--stability overrides to a
/// campaign spec. Any of the four value options implies --adaptive; enabling
/// adaptive on a fixed-N spec starts from min_n = 10. Like --backend, these
/// change the measurement plan (and the spec hash): every shard and the
/// merge must be invoked with the same adaptive options.
/// True when any adaptive option was given — the one list both
/// apply_adaptive_overrides and the --input-mode guard consult.
bool adaptive_options_present(const support::CliParser& cli) {
    return cli.flag("adaptive") || cli.flag("coordinated") ||
           cli.value_optional("min-n").has_value() ||
           cli.value_optional("max-n").has_value() ||
           cli.value_optional("batch").has_value() ||
           cli.value_optional("stability").has_value() ||
           cli.value_optional("confidence").has_value();
}

void apply_adaptive_overrides(const support::CliParser& cli,
                              campaign::CampaignSpec& spec) {
    if (!adaptive_options_present(cli)) return;
    const auto min_n = cli.value_optional("min-n");
    const auto max_n = cli.value_optional("max-n");
    const auto batch = cli.value_optional("batch");
    const auto stability = cli.value_optional("stability");
    // Zero would silently turn adaptive back off (adaptive_min == 0 means
    // "fixed-N"): an explicit adaptive request with a zero knob is an error.
    if (max_n) spec.measurements = str::parse_positive_size(*max_n, "--max-n");
    if (!spec.adaptive()) spec.adaptive_min = core::AdaptiveConfig{}.min_n;
    if (min_n) spec.adaptive_min = str::parse_positive_size(*min_n, "--min-n");
    if (batch) spec.adaptive_batch = str::parse_positive_size(*batch, "--batch");
    if (stability) {
        spec.adaptive_stability = str::parse_positive_size(*stability, "--stability");
    }
    if (cli.flag("coordinated")) spec.adaptive_coordinated = true;
    if (const auto confidence = cli.value_optional("confidence")) {
        spec.adaptive_confidence = str::parse_double(*confidence,
                                                     "--confidence");
    }
    spec.validate(); // e.g. --min-n above the cap dies here, not mid-run
}

/// Prints what adaptive early stopping saved against the fixed-N plan and
/// optionally writes the per-algorithm sample counts CSV (the CI artifact).
/// The savings line reads the metrics registry — the same counters the
/// --metrics dump exposes — so the printed number and the exported
/// relperf_samples_total can never drift apart. Measuring modes feed the
/// counters from the engine; --merge feeds them at shard ingest.
void report_adaptive(const campaign::CampaignSpec& spec,
                     const core::MeasurementSet& measurements,
                     const std::optional<std::string>& samples_csv,
                     std::size_t cache_saved = 0) {
    if (samples_csv) {
        support::CsvWriter csv(*samples_csv, {"algorithm", "samples"});
        for (std::size_t i = 0; i < measurements.size(); ++i) {
            csv.add_row({measurements.name(i),
                         std::to_string(measurements.samples(i).size())});
        }
        std::printf("per-algorithm sample counts written to %s\n",
                    samples_csv->c_str());
    }
    if (spec.adaptive()) {
        const obs::Metrics& m = obs::metrics();
        std::printf("adaptive: %s\n",
                    core::render_savings(m.samples_total.value(),
                                         m.samples_fixed_n_total.value())
                        .c_str());
    }
    // Measurement cost the result cache absorbed on top of (and
    // independently of) the adaptive savings: samples_total above already
    // counts only the fresh executor draws.
    if (cache_saved > 0) {
        std::printf("saved via cache: %zu samples\n", cache_saved);
    }
}

/// --cache-stats: the on-disk state plus this process's lookup counters.
void print_cache_stats(const cache::ResultCache& result_cache) {
    const cache::CacheStats stats = result_cache.stats();
    const obs::Metrics& m = obs::metrics();
    std::printf("cache stats: dir=%s entries=%zu bytes=%zu\n",
                result_cache.config().dir.c_str(), stats.entries, stats.bytes);
    std::printf(
        "cache stats: hits=%llu misses=%llu extensions=%llu "
        "samples_saved=%llu\n",
        static_cast<unsigned long long>(m.cache_hits_total.value()),
        static_cast<unsigned long long>(m.cache_misses_total.value()),
        static_cast<unsigned long long>(m.cache_extensions_total.value()),
        static_cast<unsigned long long>(
            m.cache_extension_samples_saved_total.value()));
}

/// Renders the cluster + final tables and optionally writes the clustering
/// CSV (shared tail of every analyzing mode).
void report_analysis(const core::AnalysisResult& result,
                     const std::optional<std::string>& out_path) {
    std::puts("Performance classes with relative scores:");
    std::fputs(
        core::render_cluster_table(result.clustering, result.measurements).c_str(),
        stdout);
    std::puts("\nFinal unique assignment:");
    std::fputs(
        core::render_final_table(result.clustering, result.measurements).c_str(),
        stdout);
    if (out_path) {
        core::write_clustering_csv(result.clustering, result.measurements,
                                   *out_path);
        std::printf("\nclustering written to %s\n", out_path->c_str());
    }
}

/// --list-backends: what this build can measure on.
int list_backends() {
    std::printf("linalg backends in this build (default: %s):\n",
                linalg::default_backend().name.c_str());
    for (const std::string& name : linalg::backend_names()) {
        std::printf("  %-10s %s\n", name.c_str(),
                    linalg::backend(name).description.c_str());
    }
    if (!linalg::has_backend(linalg::kBlasBackend)) {
        std::puts("  (no 'blas' backend: rebuild with -DRELPERF_ENABLE_BLAS=ON "
                  "and a vendor BLAS/LAPACK)");
    }
    return 0;
}

int campaign_init(const support::CliParser& cli, const std::string& path,
                  const std::optional<std::string>& backend,
                  const std::optional<std::string>& variants) {
    campaign::CampaignSpec spec;
    if (backend) spec.backend = *backend;
    if (variants) {
        spec.variant_backends = str::parse_name_list(*variants, "--variants");
    }
    apply_adaptive_overrides(cli, spec);
    warn_unregistered_backends(spec);
    spec.save(path);
    std::printf("campaign spec written to %s\n\n", path.c_str());
    std::printf("next steps (K = any shard count, here 2):\n"
                "  relperf --campaign %s --shard 0/2 --out shard_0.csv\n"
                "  relperf --campaign %s --shard 1/2 --out shard_1.csv\n"
                "  relperf --campaign %s --merge 'shard_*.csv'\n",
                path.c_str(), path.c_str(), path.c_str());
    return 0;
}

int campaign_shard(const campaign::CampaignSpec& spec, const std::string& ref_text,
                   const std::optional<std::string>& out_path,
                   const std::optional<std::string>& samples_csv) {
    if (!out_path) {
        std::fputs("error: --shard requires --out <shard.csv>\n", stderr);
        return 2;
    }
    const campaign::ShardRef ref = campaign::parse_shard_ref(ref_text);
    const campaign::ShardResult shard =
        campaign::run_shard(spec, ref.index, ref.count);
    campaign::write_shard_csv(shard, *out_path);
    const std::string backend_label =
        spec.variant_backends.empty()
            ? spec.backend
            : spec.backend + ", per-task axis " +
                  str::join(spec.variant_backends, "|");
    const std::string n_label =
        spec.adaptive() ? str::format("%zu..%zu (adaptive)", spec.adaptive_min,
                                      spec.measurements)
                        : std::to_string(spec.measurements);
    std::printf("campaign '%s' shard %zu/%zu: %zu algorithms x %s "
                "measurements -> %s (backend %s, spec hash %016llx)\n",
                spec.name.c_str(), ref.index, ref.count,
                shard.measurements.size(), n_label.c_str(),
                out_path->c_str(), backend_label.c_str(),
                static_cast<unsigned long long>(shard.manifest.spec_hash));
    report_adaptive(spec, shard.measurements, samples_csv);
    return 0;
}

int campaign_merge(const campaign::CampaignSpec& spec, const std::string& pattern,
                   const std::optional<std::string>& out_path,
                   const std::optional<std::string>& merged_csv,
                   const std::optional<std::string>& samples_csv) {
    const std::vector<std::string> paths =
        campaign::expand_shard_pattern(pattern);
    std::vector<campaign::ShardResult> shards;
    shards.reserve(paths.size());
    for (const std::string& path : paths) {
        shards.push_back(campaign::read_shard_csv(path));
        // Ingest accounting: the shards were measured elsewhere, so their
        // cost enters the registry here — the savings line and the
        // --metrics dump then describe the whole campaign, not this
        // (measurement-free) merge process.
        obs::metrics().samples_total.inc(
            shards.back().measurements.total_samples());
        obs::metrics().samples_fixed_n_total.inc(
            shards.back().measurements.size() * spec.measurements);
        std::printf("read %s (shard %zu/%zu, host %s)\n", path.c_str(),
                    shards.back().manifest.shard_index,
                    shards.back().manifest.shard_count,
                    shards.back().manifest.host.c_str());
    }
    core::MeasurementSet merged = campaign::merge_shards(spec, shards);
    if (merged_csv) {
        core::write_measurements_csv(merged, *merged_csv);
        std::printf("merged measurements written to %s\n", merged_csv->c_str());
    }
    report_adaptive(spec, merged, samples_csv);
    std::printf("merged %zu shards: %zu algorithms x %zu total "
                "measurements\n\n",
                shards.size(), merged.size(), merged.total_samples());
    const core::AnalysisResult result =
        core::analyze_measurements(std::move(merged), spec.analysis_config());
    report_analysis(result, out_path);
    return 0;
}

int campaign_run(const campaign::CampaignSpec& spec, std::size_t shard_count,
                 std::size_t workers, const cache::CacheConfig& cache_cfg,
                 bool cache_stats,
                 const std::optional<std::string>& out_path,
                 const std::optional<std::string>& merged_csv,
                 const std::optional<std::string>& samples_csv,
                 const std::optional<std::string>& stopset_csv) {
    if (shard_count == 0) shard_count = spec.shards;
    if (stopset_csv && !spec.adaptive_coordinated) {
        std::fputs("error: --stopset-csv records the coordinator's per-round "
                   "stop-set; it needs --coordinated\n",
                   stderr);
        return 2;
    }
    std::printf("campaign '%s': %zu shards, %s workers", spec.name.c_str(),
                shard_count,
                workers == 0 ? "all" : std::to_string(workers).c_str());
    if (spec.adaptive_coordinated) {
        std::printf(", coordinated stopping (%s rule)",
                    spec.adaptive_confidence != 0.0 ? "confidence"
                                                    : "stability");
    }
    std::printf("\n\n");

    // A disabled cache runs the plan straight through (coordinated plans via
    // the coordinator, the rest shard by shard).
    cache::ResultCache result_cache(cache_cfg);
    const cache::CachedRunResult run = cache::run_campaign_cached(
        spec, result_cache, shard_count, workers);
    if (cache_cfg.enabled()) {
        const char* detail = "";
        if (run.bypassed) {
            detail = " (shard-local adaptive stopping with K > 1 shards is "
                     "not cacheable)";
        } else if (run.cache == cache::HitKind::Exact) {
            detail = run.stored_clustering ? " (stored clustering)"
                                           : " (re-clustered)";
        }
        std::printf("cache: %s%s\n", cache::to_string(run.cache), detail);
        if (cache_stats) print_cache_stats(result_cache);
    }

    const core::AnalysisResult& result = run.analysis;
    if (spec.adaptive_coordinated) {
        std::printf("coordinator: %zu rounds, final stop-set %zu/%zu "
                    "algorithms\n",
                    run.rounds,
                    run.stopset_rounds.empty() ? 0 : run.stopset_rounds.back(),
                    result.measurements.size());
        if (stopset_csv) {
            support::CsvWriter csv(*stopset_csv, {"round", "stopped_total"});
            for (std::size_t i = 0; i < run.stopset_rounds.size(); ++i) {
                csv.add_row({std::to_string(i + 1),
                             std::to_string(run.stopset_rounds[i])});
            }
            std::printf("per-round stop-set written to %s\n",
                        stopset_csv->c_str());
        }
    }
    if (merged_csv) {
        core::write_measurements_csv(result.measurements, *merged_csv);
        std::printf("merged measurements written to %s\n\n",
                    merged_csv->c_str());
    }
    report_adaptive(spec, result.measurements, samples_csv,
                    run.samples_from_cache);
    report_analysis(result, out_path);
    return 0;
}

int analyze_input(const support::CliParser& cli, const std::string& input) {
    // The knobs are parsed before the CSV is read, so a bad value fails at
    // once with an error naming its flag.
    core::AnalysisConfig config;
    config.comparator.rounds =
        str::parse_positive_size(cli.value("rounds"), "--rounds");
    config.comparator.tie_epsilon =
        str::parse_double(cli.value("tie-epsilon"), "--tie-epsilon");
    config.comparator.decision_threshold =
        str::parse_double(cli.value("threshold"), "--threshold");
    config.clustering.repetitions =
        str::parse_positive_size(cli.value("rep"), "--rep");
    config.clustering.seed = str::parse_u64(cli.value("seed"), "--seed");
    const std::size_t n_max = str::parse_size(cli.value("n-max"), "--n-max");

    core::MeasurementSet loaded = core::read_measurements_csv(input);

    // Optional truncation (simulate a smaller N).
    core::MeasurementSet measurements;
    if (n_max > 0) {
        for (std::size_t i = 0; i < loaded.size(); ++i) {
            const auto samples = loaded.samples(i);
            const std::size_t keep = std::min(samples.size(), n_max);
            measurements.add(loaded.name(i),
                             {samples.begin(), samples.begin() + keep});
        }
    } else {
        measurements = std::move(loaded);
    }

    std::printf("relperf: %zu algorithms from %s\n\n", measurements.size(),
                input.c_str());

    if (cli.flag("summary")) {
        std::fputs(core::render_summary_table(measurements).c_str(), stdout);
        std::fputs("\n", stdout);
    }
    if (cli.flag("distributions")) {
        std::fputs(core::render_distributions(measurements).c_str(), stdout);
    }
    if (cli.flag("matrix")) {
        const core::BootstrapComparator comparator(config.comparator);
        stats::Rng rng(config.clustering.seed + 1);
        std::fputs(core::render_comparison_matrix(measurements, comparator, rng)
                       .c_str(),
                   stdout);
        std::fputs("\n", stdout);
    }

    const core::AnalysisResult result =
        core::analyze_measurements(std::move(measurements), config);
    report_analysis(result, cli.value_optional("out"));
    return 0;
}

/// Declares every option (parsing happens in main).
support::CliParser build_cli() {
    support::CliParser cli(
        "relperf — cluster algorithms into performance classes "
        "(Sankaran & Bientinesi 2021)");
    cli.add_option("input", "measurements CSV (algorithm,measurement_index,seconds)",
                   "");
    cli.add_option("rep", "clustering repetitions (paper Rep; --input mode)", "100");
    cli.add_option("rounds", "bootstrap rounds per comparison (paper R; "
                             "--input mode)", "100");
    cli.add_option("tie-epsilon", "relative tie band of the comparator "
                                  "(--input mode)", "0.02");
    cli.add_option("threshold", "decision threshold on the win-rate score "
                                "(--input mode)", "0.9");
    cli.add_option("n-max", "use at most this many measurements per algorithm "
                            "(0 = all)", "0");
    cli.add_option("seed", "clustering seed (--input mode)", "42");
    cli.add_option("out", "clustering CSV path (shard CSV path in --shard mode)",
                   "");
    cli.add_flag("summary", "print per-algorithm summary statistics");
    cli.add_flag("matrix", "print the pairwise three-way comparison matrix");
    cli.add_flag("distributions", "print shared-axis ASCII histograms");
    cli.add_option("campaign-init", "write a default campaign spec to this "
                                    "path and exit", "");
    cli.add_option("campaign", "campaign spec file (enables the campaign "
                               "modes below; analysis knobs come from the "
                               "spec)", "");
    cli.add_option("shard", "run one shard 'i/K' of the campaign (0-based); "
                            "requires --out", "");
    cli.add_option("merge", "merge shard files (glob pattern or "
                            "comma-separated paths) and cluster", "");
    cli.add_flag("run", "run the whole campaign on this machine and cluster");
    cli.add_option("shards", "override the spec's shard count for --run "
                             "(0 = spec value)", "0");
    cli.add_option("workers", "shard and clustering threads for --run "
                              "(0 = all cores; never more than the "
                              "hardware threads)", "1");
    cli.add_option("merged-csv", "also write the merged measurements CSV here "
                                 "(--merge/--run modes)", "");
    cli.add_option("backend", "chain-default linalg backend for campaign "
                              "modes (overrides the spec's `backend`; see "
                              "--list-backends)", "");
    cli.add_option("variants", "per-task backend axis for campaign modes, "
                               "comma-separated (overrides the spec's "
                               "`variant_backends`; grows the plan to the "
                               "(2B)^k placement x backend variants)", "");
    cli.add_flag("list-backends", "list the linalg backends of this build and "
                                  "exit");
    cli.add_flag("adaptive", "campaign modes: measure incrementally and stop "
                             "algorithms whose class membership stabilized "
                             "(overrides the spec's adaptive keys)");
    cli.add_option("min-n", "adaptive: measurements before any early stop "
                            "(implies --adaptive; default 10)", "");
    cli.add_option("max-n", "adaptive: per-algorithm cap (implies --adaptive; "
                            "overrides the spec's `measurements`)", "");
    cli.add_option("batch", "adaptive: measurements added per round (implies "
                            "--adaptive; default 5)", "");
    cli.add_option("stability", "adaptive: consecutive stable clusterings "
                                "before an algorithm stops (implies "
                                "--adaptive; default 2)", "");
    cli.add_flag("coordinated", "adaptive --run: coordinate stopping across "
                                "shards — re-cluster the merged measurements "
                                "between rounds and broadcast the global "
                                "stop-set (implies --adaptive; counts become "
                                "K-invariant)");
    cli.add_option("confidence", "adaptive: stop on the confidence-targeted "
                                 "rule at this one-sided level, in (0.5, 1) "
                                 "(implies --adaptive; unset = stability "
                                 "rule)", "");
    cli.add_option("stopset-csv", "write the coordinator's per-round "
                                  "cumulative stop-set CSV here "
                                  "(--coordinated --run)", "");
    cli.add_option("samples-csv", "write the per-algorithm sample counts CSV "
                                  "here (campaign modes)", "");
    cli.add_option("cache-dir", "campaign --run: persistent result cache "
                                "directory — an exact plan-hash hit skips "
                                "measurement entirely (and clustering, when "
                                "its stored clustering has the same analysis "
                                "knobs), a smaller-budget entry of the same "
                                "plan is extended by measuring only the "
                                "delta", "");
    cli.add_option("cache-max-entries", "evict least-recently-used cache "
                                        "entries beyond this count "
                                        "(0 = unlimited)", "0");
    cli.add_option("cache-max-bytes", "evict least-recently-used cache "
                                      "entries beyond this total size "
                                      "(0 = unlimited)", "0");
    cli.add_flag("cache-stats", "print the result cache's entry count, size "
                                "and this run's hit/miss counters (alone "
                                "with --cache-dir, or after --run)");
    cli.add_option("trace", "write a Chrome trace-event JSON of this run "
                            "here (open in chrome://tracing or "
                            "ui.perfetto.dev)", "");
    cli.add_option("metrics", "write a Prometheus text-format metrics dump "
                              "here", "");
    cli.add_flag("progress", "live progress meter on stderr (campaign "
                             "modes)");
    cli.add_option("cluster-diff", "compare two clustering CSVs 'old.csv,"
                                   "new.csv' by performance-class membership; "
                                   "exits non-zero when membership changed",
                   "");
    return cli;
}

/// Mode dispatch (everything after option parsing). Split out of main so
/// the observability outputs can be written after whichever mode ran.
int run_modes(const support::CliParser& cli) {
    if (cli.flag("list-backends")) {
        return list_backends();
    }
    if (const auto diff_pair = cli.value_optional("cluster-diff")) {
        return cluster_diff(*diff_pair);
    }

    const auto backend_override = cli.value_optional("backend");
    const auto variants_override = cli.value_optional("variants");
    if (const auto init_path = cli.value_optional("campaign-init")) {
        return campaign_init(cli, *init_path, backend_override,
                             variants_override);
    }

    cache::CacheConfig cache_cfg;
    cache_cfg.dir = cli.value("cache-dir");
    cache_cfg.max_entries =
        str::parse_size(cli.value("cache-max-entries"), "--cache-max-entries");
    cache_cfg.max_bytes =
        str::parse_size(cli.value("cache-max-bytes"), "--cache-max-bytes");
    const bool cache_stats = cli.flag("cache-stats");
    if (cache_stats && !cache_cfg.enabled()) {
        std::fputs("error: --cache-stats needs --cache-dir\n", stderr);
        return 2;
    }

    const auto input = cli.value_optional("input");
    const auto campaign_path = cli.value_optional("campaign");
    if (input && campaign_path) {
        std::fputs("error: --input and --campaign are mutually exclusive\n",
                   stderr);
        return 2;
    }
    if (input && (backend_override || variants_override)) {
        std::fputs("error: --backend/--variants only apply to campaign modes "
                   "(--input CSVs were measured elsewhere)\n",
                   stderr);
        return 2;
    }
    if (input && cache_cfg.enabled()) {
        std::fputs("error: --cache-dir/--cache-stats only apply to campaign "
                   "--run (the cache is keyed by the campaign plan hash)\n",
                   stderr);
        return 2;
    }
    if (input &&
        (adaptive_options_present(cli) || cli.value_optional("samples-csv") ||
         cli.value_optional("stopset-csv"))) {
        std::fputs("error: --adaptive/--min-n/--max-n/--batch/--stability/"
                   "--coordinated/--confidence/--samples-csv/--stopset-csv "
                   "only apply to campaign modes (--input CSVs were measured "
                   "elsewhere)\n",
                   stderr);
        return 2;
    }

    if (campaign_path) {
        campaign::CampaignSpec spec =
            campaign::CampaignSpec::load(*campaign_path);
        // The overrides change the measurement plan (and so the spec hash):
        // every shard and the merge must be invoked with the same --backend
        // and --variants.
        if (backend_override) spec.backend = *backend_override;
        if (variants_override) {
            spec.variant_backends =
                str::parse_name_list(*variants_override, "--variants");
        }
        apply_adaptive_overrides(cli, spec);
        obs::set_provenance("spec", spec.name);
        obs::set_provenance(
            "plan_hash",
            str::format("%016llx",
                        static_cast<unsigned long long>(spec.hash())));
        obs::set_provenance("executor",
                            spec.executor == campaign::ExecutorKind::Sim
                                ? "sim"
                                : "real");
        obs::set_provenance("backend", spec.backend);
        if (!spec.variant_backends.empty()) {
            obs::set_provenance("variant_backends",
                                str::join(spec.variant_backends, ","));
        }
        std::string adaptive_prov = "fixed-N";
        if (spec.adaptive()) {
            adaptive_prov =
                str::format("min=%zu,max=%zu,batch=%zu,stability=%zu",
                            spec.adaptive_min, spec.measurements,
                            spec.adaptive_batch, spec.adaptive_stability);
            if (spec.adaptive_coordinated) adaptive_prov += ",coordinated";
            if (spec.adaptive_confidence != 0.0) {
                adaptive_prov += str::format(",confidence=%.12g",
                                             spec.adaptive_confidence);
            }
        }
        obs::set_provenance("adaptive", adaptive_prov);
        const auto shard_ref = cli.value_optional("shard");
        const auto merge_pattern = cli.value_optional("merge");
        const int modes = (shard_ref ? 1 : 0) + (merge_pattern ? 1 : 0) +
                          (cli.flag("run") ? 1 : 0);
        if (modes != 1) {
            std::fputs("error: --campaign needs exactly one of --shard i/K, "
                       "--merge <pattern>, --run\n",
                       stderr);
            return 2;
        }
        if (cli.value_optional("stopset-csv") && !cli.flag("run")) {
            std::fputs("error: --stopset-csv only applies to --coordinated "
                       "--run (only the coordinator sees the global "
                       "stop-set)\n",
                       stderr);
            return 2;
        }
        if (cache_cfg.enabled() && !cli.flag("run")) {
            std::fputs("error: --cache-dir only applies to --run (a shard or "
                       "a merge is a partial plan the cache cannot key)\n",
                       stderr);
            return 2;
        }
        if (shard_ref) {
            return campaign_shard(spec, *shard_ref, cli.value_optional("out"),
                                  cli.value_optional("samples-csv"));
        }
        if (merge_pattern) {
            return campaign_merge(spec, *merge_pattern,
                                  cli.value_optional("out"),
                                  cli.value_optional("merged-csv"),
                                  cli.value_optional("samples-csv"));
        }
        return campaign_run(spec,
                            str::parse_size(cli.value("shards"), "--shards"),
                            str::parse_size(cli.value("workers"), "--workers"),
                            cache_cfg, cache_stats,
                            cli.value_optional("out"),
                            cli.value_optional("merged-csv"),
                            cli.value_optional("samples-csv"),
                            cli.value_optional("stopset-csv"));
    }

    // Standalone `--cache-dir <d> --cache-stats`: inspect the cache and exit.
    if (!input && cache_stats) {
        const cache::ResultCache result_cache(cache_cfg);
        print_cache_stats(result_cache);
        return 0;
    }

    if (!input) {
        std::fputs("error: one of --input, --campaign, --campaign-init is "
                   "required (see --help)\n",
                   stderr);
        return 2;
    }
    return analyze_input(cli, *input);
}

} // namespace

int main(int argc, char** argv) try {
    support::CliParser cli = build_cli();
    if (!cli.parse(argc, argv)) return 0;

    // Metrics counting is always on: the savings line reads the registry,
    // and the counters are a write-only side channel (one relaxed add per
    // site — never any effect on measured values or clusterings).
    obs::set_metrics_enabled(true);
    const auto trace_path = cli.value_optional("trace");
    const auto metrics_path = cli.value_optional("metrics");
    if (trace_path) obs::set_tracing_enabled(true);
    if (cli.flag("progress")) {
        obs::set_progress_sink([](const obs::Progress& p) {
            std::fprintf(stderr, "\r[%s %zu/%zu]    ", p.stage, p.done,
                         p.total);
            if (p.done >= p.total) std::fputc('\n', stderr);
        });
    }
    obs::set_provenance("command", "relperf_cli");
    obs::set_provenance("registered_backends",
                        str::join(linalg::backend_names(), ","));

    const int rc = run_modes(cli);

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
    return rc;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
