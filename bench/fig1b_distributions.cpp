//! Reproduces the paper's **Figure 1b**: execution-time distributions of the
//! four splits (DD, DA, AD, AA) of the two-loop scientific code on the
//! calibrated CPU(Xeon-8160-core) + GPU(P100) platform, N = 500 measurements,
//! plus the resulting performance classes at N = 500 and at N = 30 (the
//! Sec. III relative-score example).

#include "bench_common.hpp"
#include "core/report.hpp"
#include "sim/profile.hpp"
#include "workloads/chain.hpp"

#include <cstdio>
#include <exception>

using namespace relperf;

int main(int argc, char** argv) try {
    support::CliParser cli(
        "fig1b_distributions — paper Figure 1b + Sec. III relative scores");
    bench::add_common_options(cli);
    cli.add_option("n-large", "large measurement count (figure)", "500");
    cli.add_option("n-small", "small measurement count (Sec. III example)", "30");
    if (!cli.parse(argc, argv)) return 0;
    const std::size_t n_large =
        str::parse_positive_size(cli.value("n-large"), "--n-large");
    const std::size_t n_small =
        str::parse_positive_size(cli.value("n-small"), "--n-small");

    const workloads::TaskChain chain = workloads::two_loop_chain();
    const sim::CalibratedProfile profile = sim::fig1b_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    const auto assignments = workloads::enumerate_assignments(chain.size());

    bench::section("Figure 1b: distributions of execution times, N = " +
                   cli.value("n-large"));
    const core::AnalysisConfig big_cfg = bench::analysis_config(cli, n_large);
    const core::AnalysisResult big =
        core::analyze_chain(executor, chain, assignments, big_cfg);

    std::fputs(core::render_summary_table(big.measurements).c_str(), stdout);
    std::fputs("\n", stdout);
    std::fputs(core::render_distributions(big.measurements, 36, 46).c_str(), stdout);

    bench::section("Performance classes at N = " + cli.value("n-large"));
    std::fputs(core::render_cluster_table(big.clustering, big.measurements).c_str(),
               stdout);
    std::fputs("\n", stdout);
    std::fputs(core::render_final_table(big.clustering, big.measurements).c_str(),
               stdout);

    bench::section("Sec. III example: relative scores at N = " +
                   cli.value("n-small"));
    const core::AnalysisConfig small_cfg = bench::analysis_config(cli, n_small);
    const core::AnalysisResult small =
        core::analyze_chain(executor, chain, assignments, small_cfg);
    std::fputs(
        core::render_cluster_table(small.clustering, small.measurements).c_str(),
        stdout);
    std::fputs("\n", stdout);
    std::fputs(
        core::render_final_table(small.clustering, small.measurements).c_str(),
        stdout);

    std::printf("\nPaper reference (Sec. III): C1{AD 1.0, AA 0.3} "
                "C2{AA 0.7, DD 0.3, DA 0.3} C3{DD 0.7, DA 0.6} C4{DA 0.1};\n"
                "final clustering C1{AD}, C2{AA}, C3{DD, DA}.\n");

    if (const auto path = cli.value_optional("csv")) {
        core::write_measurements_csv(big.measurements, *path);
        std::printf("\nraw measurements written to %s\n", path->c_str());
    }
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
