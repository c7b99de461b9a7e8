//! Energy-aware scheduler: the paper's second Section IV application as a
//! runnable scenario.
//!
//! Scenario (paper Sec. I, "Hierarchical object-detection"): an autonomous
//! drone runs its detection pipeline locally (algDDD) for minimum latency,
//! but the board overheats; whenever the device energy spent in a window
//! exceeds the budget, the scheduler switches to the clustering's
//! least-device-FLOPs algorithm from the top classes (algDAA) and switches
//! back after a cool-down.
//!
//!   $ ./energy_aware_scheduler
//!   $ ./energy_aware_scheduler --budget-j 10 --runs 600

#include "core/decision.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "sim/profile.hpp"
#include "support/cli.hpp"
#include "support/str.hpp"

#include <cstdio>
#include <exception>

using namespace relperf;

int main(int argc, char** argv) try {
    support::CliParser cli("energy_aware_scheduler — duty-cycle switching demo");
    cli.add_option("runs", "chain executions to simulate", "300");
    cli.add_option("budget-j", "device energy budget per window (J)", "14");
    cli.add_option("window", "runs per monitoring window", "30");
    cli.add_option("cooldown", "cool-down runs on the offloader", "12");
    cli.add_option("seed", "simulation seed", "11");
    if (!cli.parse(argc, argv)) return 0;
    const std::size_t runs = str::parse_positive_size(cli.value("runs"), "--runs");
    const std::uint64_t seed = str::parse_u64(cli.value("seed"), "--seed");
    core::SwitchPolicyConfig policy;
    policy.device_energy_budget_j =
        str::parse_double(cli.value("budget-j"), "--budget-j");
    policy.window_runs = str::parse_positive_size(cli.value("window"), "--window");
    policy.cooldown_runs =
        str::parse_positive_size(cli.value("cooldown"), "--cooldown");

    const workloads::TaskChain chain = workloads::paper_rls_chain(10);
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    const sim::EnergyModel energy(sim::paper_cpu_gpu_platform());
    const auto assignments = workloads::enumerate_assignments(chain.size());

    // Cluster once; derive the switching pair from the classes.
    core::AnalysisConfig config;
    config.measurements_per_alg = 30;
    config.measurement_seed = seed;
    const core::AnalysisResult analysis =
        core::analyze_chain(executor, chain, assignments, config);
    const auto candidates = core::build_candidate_profiles(
        analysis.measurements, analysis.clustering, executor, chain, assignments);

    // Primary: the pure-edge algorithm (no accelerator dependency).
    const core::CandidateProfile primary =
        core::select_cost_aware(candidates, core::CostAwareConfig{1e9, 2});
    // Alternate: fewest device FLOPs within the top two classes (paper: DAA).
    const core::CandidateProfile alternate =
        core::select_min_device_flops(candidates, 2);

    std::puts("Clustering that drives the policy:");
    std::fputs(core::render_final_table(analysis.clustering, analysis.measurements)
                   .c_str(),
               stdout);
    std::printf("\nprimary = %s (C%d), alternate = %s (C%d)\n",
                primary.name.c_str(), primary.final_rank, alternate.name.c_str(),
                alternate.final_rank);

    const core::EnergyBudgetSwitcher switcher(executor, energy, chain);
    stats::Rng rng(seed + 1);
    const core::SwitchTrace trace =
        switcher.simulate(assignments[primary.alg], assignments[alternate.alg],
                          runs, policy, rng);

    std::printf("\nduty cycle: %zu runs, %zu switch(es)\n", runs, trace.switches);
    for (const auto& seg : trace.segments) {
        std::printf("  %-8s %4zu runs  %8s  %7.3f J on device\n",
                    seg.alg_name.c_str(), seg.runs,
                    str::human_seconds(seg.seconds).c_str(),
                    seg.device_energy_j);
    }
    std::printf("\nvs always-%s baseline: time %+.2f %%, device energy %+.2f %%\n",
                primary.name.c_str(),
                100.0 * (trace.total_seconds / trace.baseline_seconds - 1.0),
                100.0 * (trace.total_device_energy_j /
                             trace.baseline_device_energy_j -
                         1.0));
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
