//! Extension bench (paper Sec. V outlook): model-guided search in exponential
//! assignment spaces. For chains of growing length k the bench runs the
//! measure-fit-predict-refine loop on a `paper-cpu-gpu` campaign spec and
//! reports how many of the 2^k assignments had to be *executed* to find a
//! split inside the top percentile of the space (regret measured against the
//! exhaustive noise-free optimum).

#include "bench_common.hpp"
#include "campaign/spec.hpp"
#include "search/model_guided_search.hpp"
#include "sim/analytic.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workloads/chain.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>

using namespace relperf;

namespace {

/// Exhaustive expected-time optimum and the rank of `found` inside the space.
struct Exhaustive {
    double best_seconds;
    std::size_t found_rank; // 0 = found the optimum
};

Exhaustive exhaustive_reference(const sim::SimulatedExecutor& executor,
                                const workloads::TaskChain& chain,
                                const std::vector<workloads::VariantAssignment>& space,
                                const workloads::VariantAssignment& found) {
    double best = 1e300;
    const double found_time = executor.expected_seconds(chain, found);
    std::size_t better = 0;
    for (const auto& a : space) {
        const double t = executor.expected_seconds(chain, a);
        best = std::min(best, t);
        if (t < found_time) ++better;
    }
    return {best, better};
}

} // namespace

int main(int argc, char** argv) try {
    support::CliParser cli("search_scaling — subset search in exponential spaces");
    bench::add_common_options(cli);
    if (!cli.parse(argc, argv)) return 0;
    const std::uint64_t seed = bench::seed(cli);

    const sim::AnalyticCostModel cost_model(
        campaign::platform_preset("paper-cpu-gpu"));
    const sim::SimulatedExecutor executor(cost_model, sim::NoiseModel{});

    bench::section("Model-guided search vs exhaustive optimum");
    support::AsciiTable table(
        {"k", "space", "measured", "fraction", "found", "regret", "rank"},
        {support::Align::Right, support::Align::Right, support::Align::Right,
         support::Align::Right, support::Align::Left, support::Align::Right,
         support::Align::Right});

    for (const std::size_t k : {6u, 8u, 10u, 12u}) {
        // Mixed sizes: repeat a ramp so every chain length is comparable.
        campaign::CampaignSpec spec;
        spec.name = "k" + std::to_string(k);
        spec.sizes.clear();
        const std::size_t ramp[] = {40, 80, 140, 220, 300, 380};
        for (std::size_t i = 0; i < k; ++i) spec.sizes.push_back(ramp[i % 6]);
        spec.iters = 5;
        spec.measurements = 10;
        spec.measurement_seed = seed;

        search::SearchConfig config;
        config.initial_samples = 3 * k;
        config.refinement_rounds = 4;
        config.batch_size = k;
        config.seed = seed;
        const search::ModelGuidedSearch searcher(spec, config);
        const search::SearchResult result = searcher.run();

        const Exhaustive ref = exhaustive_reference(
            executor, spec.chain(), spec.variants(), result.best);
        const double regret =
            result.best_measured_mean / ref.best_seconds - 1.0;
        table.add_row({std::to_string(k), std::to_string(result.space_size),
                       std::to_string(result.measured_count),
                       str::format("%.1f %%", 100.0 * result.measured_fraction()),
                       result.best.str(), str::format("%+.1f %%", 100.0 * regret),
                       std::to_string(ref.found_rank)});
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf(
        "\nReading: the measured fraction of the space collapses as k grows\n"
        "(2^12 = 4096 assignments, < 3 %% executed) while the found split\n"
        "stays within the top of the space — the paper's Sec. V strategy of\n"
        "clustering a measured subset and letting a model guide the search.\n");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
