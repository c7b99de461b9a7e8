//! Reproduces the paper's **Table I**: the eight splits (D/A)^3 of the
//! three-task RLS chain (sizes 50/75/300, n = 10) clustered into performance
//! classes with relative scores. N = 30 measurements per algorithm (paper
//! Sec. IV), Rep = 100 repetitions.

#include "bench_common.hpp"
#include "core/report.hpp"
#include "sim/profile.hpp"
#include "workloads/chain.hpp"

#include <cstdio>
#include <exception>

using namespace relperf;

int main(int argc, char** argv) try {
    support::CliParser cli("table1_clustering — paper Table I");
    bench::add_common_options(cli);
    cli.add_option("n", "measurements per algorithm (paper: 30)", "30");
    cli.add_option("iters", "loop iterations per MathTask (paper: 10)", "10");
    if (!cli.parse(argc, argv)) return 0;
    const std::size_t n = str::parse_positive_size(cli.value("n"), "--n");
    const std::size_t iters = str::parse_positive_size(cli.value("iters"), "--iters");

    const workloads::TaskChain chain = workloads::paper_rls_chain(iters);
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    const auto assignments = workloads::enumerate_assignments(chain.size());

    const core::AnalysisConfig config = bench::analysis_config(cli, n);
    const core::AnalysisResult result =
        core::analyze_chain(executor, chain, assignments, config);

    bench::section("Measurement summaries (N = " + cli.value("n") + ")");
    std::fputs(core::render_summary_table(result.measurements).c_str(), stdout);

    bench::section("Table I: clustering of algorithms with relative scores");
    std::fputs(
        core::render_cluster_table(result.clustering, result.measurements).c_str(),
        stdout);

    bench::section("Final unique assignment (max-score rank, cumulated score)");
    std::fputs(
        core::render_final_table(result.clustering, result.measurements).c_str(),
        stdout);

    std::printf(
        "\nPaper reference (Table I):\n"
        "  C1 {DDA 1.0, DAA 0.6}  C2 {DDD 1.0, DAA 0.4}\n"
        "  C3 {ADA 1.0, ADD 1.0, DAD 0.7}  C4 {AAA 1.0, DAD 0.3}  C5 {AAD 1.0}\n"
        "Reproduction note: the winner (DDA), DDD-in-C2, the straddlers and\n"
        "the loser (AAD) match; AAA lands adjacent to ADA/ADD instead of one\n"
        "class below (non-additive testbed effect, see EXPERIMENTS.md).\n");

    if (const auto path = cli.value_optional("csv")) {
        core::write_clustering_csv(result.clustering, result.measurements, *path);
        std::printf("\nclustering written to %s\n", path->c_str());
    }
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
