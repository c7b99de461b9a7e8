//! Edge-offload explorer: the paper's full workflow on a user-defined
//! scientific code.
//!
//! Scenario (paper Sec. I, "Digital-Twin applications involving multi-scale
//! modelling"): a chain of simulation stages with growing computational
//! volume runs on an edge board that can offload stages to a LAN server.
//! The explorer enumerates all 2^k device splits, measures each on the
//! simulated platform, clusters them into performance classes and prints a
//! recommendation.
//!
//!   $ ./edge_offload_explorer
//!   $ ./edge_offload_explorer --sizes 32,128,512 --iters 8 --platform phone

#include "core/decision.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "sim/analytic.hpp"
#include "support/cli.hpp"
#include "support/str.hpp"

#include <cstdio>
#include <exception>

using namespace relperf;

int main(int argc, char** argv) try {
    support::CliParser cli("edge_offload_explorer — split a task chain across devices");
    cli.add_option("sizes", "comma-separated stage sizes", "64,128,384");
    cli.add_option("iters", "loop iterations per stage", "6");
    cli.add_option("n", "measurements per split", "30");
    cli.add_option("platform", "rpi | phone | paper | cpu", "rpi");
    cli.add_option("seed", "measurement seed", "7");
    if (!cli.parse(argc, argv)) return 0;

    // 1. Describe the scientific code (Procedure 5 shape: serial stages).
    const std::vector<std::size_t> sizes =
        str::parse_size_list(cli.value("sizes"), "--sizes");
    const workloads::TaskChain chain = workloads::make_rls_chain(
        sizes, str::parse_positive_size(cli.value("iters"), "--iters"),
        "digital-twin-chain");

    // 2. Pick the platform.
    const std::string platform_name = cli.value("platform");
    sim::Platform platform = sim::rpi_server_platform();
    if (platform_name == "phone") platform = sim::smartphone_gpu_platform();
    else if (platform_name == "paper") platform = sim::paper_cpu_gpu_platform();
    else if (platform_name == "cpu") platform = sim::cpu_only_platform();

    const sim::AnalyticCostModel model(platform);
    const sim::SimulatedExecutor executor(model, sim::NoiseModel{});

    // 3. Enumerate every split and analyze.
    const auto assignments = workloads::enumerate_assignments(chain.size());
    core::AnalysisConfig config;
    config.measurements_per_alg = str::parse_positive_size(cli.value("n"), "--n");
    config.measurement_seed = str::parse_u64(cli.value("seed"), "--seed");
    const core::AnalysisResult result =
        core::analyze_chain(executor, chain, assignments, config);

    std::printf("platform: %s | chain: %s (%zu stages, 2^%zu = %zu splits)\n",
                platform.name.c_str(), chain.name.c_str(), chain.size(),
                chain.size(), assignments.size());

    std::puts("\nMeasured splits:");
    std::fputs(core::render_summary_table(result.measurements).c_str(), stdout);
    std::puts("\nPerformance classes:");
    std::fputs(core::render_cluster_table(result.clustering, result.measurements)
                   .c_str(),
               stdout);

    // 4. Recommend: fastest class, then fewest device FLOPs within it.
    const auto candidates = core::build_candidate_profiles(
        result.measurements, result.clustering, executor, chain, assignments);
    const core::CandidateProfile fastest =
        core::select_cost_aware(candidates, core::CostAwareConfig{0.0, 1});
    const core::CandidateProfile greenest = core::select_min_device_flops(
        candidates, /*rank_tolerance=*/2);

    std::printf("\nrecommendation (latency)      : %s — mean %s, class C%d\n",
                fastest.name.c_str(),
                str::human_seconds(fastest.mean_seconds).c_str(),
                fastest.final_rank);
    std::printf("recommendation (device energy): %s — %.2g device FLOPs vs "
                "%.2g for %s\n",
                greenest.name.c_str(), greenest.device_flops,
                fastest.device_flops, fastest.name.c_str());
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
