//! Reproduces the paper's **Section IV energy application**: a device that
//! "cannot persistently handle all the computations because of energy
//! constraints" runs algDDD and periodically switches to algDAA — the
//! algorithm in the top classes that offloads most of the computations —
//! until it cools down. The bench simulates the duty cycle and reports time
//! and device-energy totals against the never-switching baseline.

#include "bench_common.hpp"
#include "core/decision.hpp"
#include "core/report.hpp"
#include "sim/profile.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workloads/chain.hpp"

#include <cstdio>
#include <exception>

using namespace relperf;

int main(int argc, char** argv) try {
    support::CliParser cli("energy_switching — paper Sec. IV energy-budget policy");
    bench::add_common_options(cli);
    cli.add_option("runs", "total chain executions in the duty cycle", "400");
    cli.add_option("budget-j", "device energy budget per window (J)", "18");
    cli.add_option("window", "runs per monitoring window", "40");
    cli.add_option("cooldown", "runs on the off-loading algorithm", "15");
    if (!cli.parse(argc, argv)) return 0;
    const std::size_t runs = str::parse_positive_size(cli.value("runs"), "--runs");
    core::SwitchPolicyConfig policy;
    policy.device_energy_budget_j =
        str::parse_double(cli.value("budget-j"), "--budget-j");
    policy.window_runs = str::parse_positive_size(cli.value("window"), "--window");
    policy.cooldown_runs =
        str::parse_positive_size(cli.value("cooldown"), "--cooldown");
    const core::AnalysisConfig config = bench::analysis_config(cli, 30);

    const workloads::TaskChain chain = workloads::paper_rls_chain(10);
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    const sim::EnergyModel energy(sim::paper_cpu_gpu_platform());
    const auto assignments = workloads::enumerate_assignments(chain.size());

    // Cluster first: the switching pair is derived from the analysis.
    const core::AnalysisResult analysis =
        core::analyze_chain(executor, chain, assignments, config);
    const auto candidates = core::build_candidate_profiles(
        analysis.measurements, analysis.clustering, executor, chain, assignments);

    const core::CandidateProfile primary =
        core::select_cost_aware(candidates, core::CostAwareConfig{1e9, 2});
    const core::CandidateProfile alternate =
        core::select_min_device_flops(candidates, 2);

    bench::section("Selected policy pair");
    std::printf("primary   : %s (class C%d, device FLOPs %.3g)\n",
                primary.name.c_str(), primary.final_rank, primary.device_flops);
    std::printf("alternate : %s (class C%d, device FLOPs %.3g)\n",
                alternate.name.c_str(), alternate.final_rank,
                alternate.device_flops);

    const core::EnergyBudgetSwitcher switcher(executor, energy, chain);
    stats::Rng rng(config.measurement_seed);
    const core::SwitchTrace trace =
        switcher.simulate(assignments[primary.alg], assignments[alternate.alg],
                          runs, policy, rng);

    bench::section("Duty-cycle segments");
    support::AsciiTable table({"Algorithm", "Runs", "Seconds", "Device energy"},
                              {support::Align::Left, support::Align::Right,
                               support::Align::Right, support::Align::Right});
    for (const auto& seg : trace.segments) {
        table.add_row({seg.alg_name, std::to_string(seg.runs),
                       str::fixed(seg.seconds, 3),
                       str::format("%.3f J", seg.device_energy_j)});
    }
    std::fputs(table.render().c_str(), stdout);

    bench::section("Totals vs never-switching baseline");
    std::printf("switches                : %zu\n", trace.switches);
    std::printf("policy total time       : %s\n",
                str::human_seconds(trace.total_seconds).c_str());
    std::printf("baseline total time     : %s\n",
                str::human_seconds(trace.baseline_seconds).c_str());
    std::printf("policy device energy    : %.3f J\n", trace.total_device_energy_j);
    std::printf("baseline device energy  : %.3f J\n",
                trace.baseline_device_energy_j);
    std::printf("device energy saved     : %.1f %%\n",
                100.0 * (1.0 - trace.total_device_energy_j /
                                   trace.baseline_device_energy_j));
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
