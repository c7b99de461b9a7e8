//! Ablation A3: how does measurement noise shape the clusters? Sweeps the
//! lognormal sigma and the spike probability of the simulator's noise model
//! over the Table I workload, reporting the class count and the straddlers.
//! This probes the paper's core premise: fluctuating measurements change the
//! number of statistically distinguishable performance classes.

#include "bench_common.hpp"
#include "core/report.hpp"
#include "sim/profile.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workloads/chain.hpp"

#include <cstdio>
#include <exception>
#include <set>

using namespace relperf;

namespace {

int distinct_final_ranks(const core::Clustering& c) {
    std::set<int> ranks;
    for (const auto& fin : c.final_assignment) ranks.insert(fin.rank);
    return static_cast<int>(ranks.size());
}

int straddler_count(const core::Clustering& c) {
    int straddlers = 0;
    for (std::size_t alg = 0; alg < c.final_assignment.size(); ++alg) {
        int memberships = 0;
        for (int rank = 1; rank <= c.cluster_count(); ++rank) {
            if (c.score_of(alg, rank) >= 0.1) ++memberships;
        }
        if (memberships > 1) ++straddlers;
    }
    return straddlers;
}

} // namespace

int main(int argc, char** argv) try {
    support::CliParser cli("ablation_noise — noise level vs cluster structure");
    bench::add_common_options(cli);
    cli.add_option("n", "measurements per algorithm", "30");
    if (!cli.parse(argc, argv)) return 0;
    const std::size_t n = str::parse_positive_size(cli.value("n"), "--n");
    const core::AnalysisConfig config = bench::analysis_config(cli, n);

    const workloads::TaskChain chain = workloads::paper_rls_chain(10);
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const auto assignments = workloads::enumerate_assignments(chain.size());

    bench::section("Cluster structure vs noise (Table I workload, N = " +
                   cli.value("n") + ")");
    support::AsciiTable table(
        {"sigma", "spike prob", "k", "straddlers", "winner", "loser"},
        {support::Align::Right, support::Align::Right, support::Align::Right,
         support::Align::Right, support::Align::Left, support::Align::Left});

    for (const double sigma : {0.005, 0.02, 0.08, 0.2, 0.4}) {
        for (const double spike : {0.0, 0.05}) {
            sim::NoiseModel noise;
            noise.sigma_log = sigma;
            noise.spike_prob = spike;
            const sim::SimulatedExecutor executor(profile, noise);
            const core::AnalysisResult result =
                core::analyze_chain(executor, chain, assignments, config);

            // Winner = any algorithm with final rank 1; loser = max rank.
            std::string winner;
            std::string loser;
            int worst = 0;
            for (std::size_t alg = 0; alg < 8; ++alg) {
                const int rank = result.clustering.final_rank(alg);
                if (rank == 1) {
                    if (!winner.empty()) winner += "+";
                    winner += result.measurements.name(alg).substr(3);
                }
                if (rank > worst) {
                    worst = rank;
                    loser = result.measurements.name(alg).substr(3);
                }
            }
            table.add_row({str::fixed(sigma, 3), str::fixed(spike, 2),
                           std::to_string(distinct_final_ranks(result.clustering)),
                           std::to_string(straddler_count(result.clustering)),
                           winner, loser});
        }
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf(
        "\nReading: with tiny noise the classes are set by the comparator's\n"
        "relative tie band alone and are perfectly stable (no straddlers);\n"
        "at the calibrated 8 %% sigma the paper's borderline pairs appear\n"
        "(straddlers > 0); at very high noise the distributions blur\n"
        "together, k collapses and the top class swallows most algorithms.\n");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
