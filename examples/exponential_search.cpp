//! Exponential search spaces: the paper's Sec. V scenario as a runnable
//! example. A 12-stage multi-scale simulation chain has 2^12 = 4096
//! mathematically equivalent device splits — far too many to measure. The
//! model-guided search measures a small subset of the campaign spec's
//! variants, fits the execution-less predictor, and iteratively refines
//! towards the best split; the measured subset is then clustered with the
//! paper's methodology.
//!
//!   $ ./exponential_search
//!   $ ./exponential_search --stages 10 --budget-rounds 6

#include "campaign/spec.hpp"
#include "core/report.hpp"
#include "search/model_guided_search.hpp"
#include "sim/analytic.hpp"
#include "support/cli.hpp"
#include "support/str.hpp"
#include "workloads/chain.hpp"

#include <cstdio>
#include <exception>

using namespace relperf;

int main(int argc, char** argv) try {
    support::CliParser cli("exponential_search — 2^k splits, measure only a few");
    cli.add_option("stages", "number of chain stages (k, at most 16)", "12");
    cli.add_option("budget-rounds", "refinement rounds", "4");
    cli.add_option("seed", "search seed", "21");
    if (!cli.parse(argc, argv)) return 0;

    // A multi-scale chain: stage sizes cycle through a ramp of scales.
    const std::size_t k = str::parse_positive_size(cli.value("stages"), "--stages");
    campaign::CampaignSpec spec;
    spec.name = "multiscale";
    spec.sizes.clear();
    const std::size_t ramp[] = {32, 64, 96, 160, 240, 320};
    for (std::size_t i = 0; i < k; ++i) spec.sizes.push_back(ramp[i % 6]);
    spec.iters = 4;
    spec.measurements = 12;

    search::SearchConfig config;
    config.initial_samples = 2 * k;
    config.refinement_rounds =
        str::parse_size(cli.value("budget-rounds"), "--budget-rounds");
    config.batch_size = k;
    config.seed = str::parse_u64(cli.value("seed"), "--seed");

    const search::ModelGuidedSearch searcher(spec, config);
    const search::SearchResult result = searcher.run();

    std::printf("space          : 2^%zu = %zu equivalent algorithms\n", k,
                result.space_size);
    std::printf("executed       : %zu (%.1f %% of the space)\n",
                result.measured_count, 100.0 * result.measured_fraction());
    std::printf("best found     : %s, mean %s\n", result.best.alg_name().c_str(),
                str::human_seconds(result.best_measured_mean).c_str());

    // Sanity check against the exhaustive noise-free optimum (cheap for the
    // simulator; impossible on a real testbed — that is the point).
    const sim::AnalyticCostModel model(campaign::platform_preset(spec.platform));
    const sim::SimulatedExecutor executor(model, sim::NoiseModel{});
    const workloads::TaskChain chain = spec.chain();
    double exhaustive_best = 1e300;
    std::string exhaustive_name;
    for (const auto& a : spec.variants()) {
        const double t = executor.expected_seconds(chain, a);
        if (t < exhaustive_best) {
            exhaustive_best = t;
            exhaustive_name = a.alg_name();
        }
    }
    std::printf("exhaustive best: %s, expected mean %s\n", exhaustive_name.c_str(),
                str::human_seconds(exhaustive_best).c_str());
    std::printf("regret         : %+.2f %%\n\n",
                100.0 * (result.best_measured_mean / exhaustive_best - 1.0));

    // The measured subset, clustered with the paper methodology (top classes
    // only, to keep the output short).
    std::puts("Top measured performance classes (paper methodology on the subset):");
    const std::string table =
        core::render_final_table(result.clustering, result.measurements);
    // Print only the first ~15 lines (header + best entries).
    std::size_t lines = 0;
    for (const char c : table) {
        std::putchar(c);
        if (c == '\n' && ++lines >= 15) break;
    }
    std::puts("  ...");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
