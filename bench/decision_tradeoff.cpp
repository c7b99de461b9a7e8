//! Reproduces the paper's **Section IV operating-cost discussion**: "the
//! choice of algorithm is now based on a decision-model that is a trade-off
//! between operating cost and speed". Sweeps the cost per accelerator-second
//! and reports which algorithm the cost-aware selector picks, showing the
//! switch from algDDA (buy the accelerator) to algDDD (stay on the edge).

#include "bench_common.hpp"
#include "core/decision.hpp"
#include "sim/profile.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workloads/chain.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>

using namespace relperf;

int main(int argc, char** argv) try {
    support::CliParser cli("decision_tradeoff — paper Sec. IV cost/speed trade-off");
    bench::add_common_options(cli);
    cli.add_option("rank-tolerance", "eligible classes (1 = best only)", "2");
    if (!cli.parse(argc, argv)) return 0;
    // A tolerance past the class count admits every class, so clamping to
    // the rank type keeps its meaning.
    const int rank_tolerance = static_cast<int>(std::min<std::size_t>(
        str::parse_positive_size(cli.value("rank-tolerance"), "--rank-tolerance"),
        std::numeric_limits<int>::max()));
    const core::AnalysisConfig config = bench::analysis_config(cli, 30);

    const workloads::TaskChain chain = workloads::paper_rls_chain(10);
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    const auto assignments = workloads::enumerate_assignments(chain.size());

    const core::AnalysisResult analysis =
        core::analyze_chain(executor, chain, assignments, config);
    const auto candidates = core::build_candidate_profiles(
        analysis.measurements, analysis.clustering, executor, chain, assignments);

    bench::section("Candidates within rank tolerance " +
                   cli.value("rank-tolerance"));
    support::AsciiTable cand_table(
        {"Algorithm", "Class", "Mean time", "Accel busy", "Device FLOPs"},
        {support::Align::Left, support::Align::Left, support::Align::Right,
         support::Align::Right, support::Align::Right});
    for (const auto& c : candidates) {
        if (c.final_rank > rank_tolerance) continue;
        cand_table.add_row({c.name, "C" + std::to_string(c.final_rank),
                            str::human_seconds(c.mean_seconds),
                            str::human_seconds(c.accelerator_seconds),
                            str::format("%.3g", c.device_flops)});
    }
    std::fputs(cand_table.render().c_str(), stdout);

    bench::section("Selected algorithm vs accelerator operating cost");
    support::AsciiTable table({"Cost / accel-second", "Choice", "Utility"},
                              {support::Align::Right, support::Align::Left,
                               support::Align::Right});
    for (const double weight : {0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 100.0}) {
        core::CostAwareConfig cost_cfg;
        cost_cfg.cost_per_accelerator_second = weight;
        cost_cfg.rank_tolerance = rank_tolerance;
        const core::CandidateProfile pick =
            core::select_cost_aware(candidates, cost_cfg);
        const double utility =
            pick.mean_seconds + weight * pick.accelerator_seconds;
        table.add_row({str::format("%.2f", weight), pick.name,
                       str::format("%.4f", utility)});
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf(
        "\nPaper reference (Sec. IV): with no operating cost the best class\n"
        "(algDDA) wins; as the accelerator cost grows the decision model\n"
        "falls back to algDDD, which is \"not so bad\" (class C2).\n");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
