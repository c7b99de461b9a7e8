//! Ablation A2: sensitivity of the clustering to the bootstrap comparator's
//! knobs (rounds R, tie band epsilon, decision threshold theta) and to the
//! measurement count N. For each setting the bench reports the number of
//! classes and the final class of the three paper-critical algorithms
//! (algDDA / algDDD / algAAD).

#include "bench_common.hpp"
#include "core/report.hpp"
#include "stats/ranking.hpp"
#include "sim/profile.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workloads/chain.hpp"

#include <cstdio>
#include <exception>
#include <set>

using namespace relperf;

namespace {

struct Row {
    std::string label;
    core::Clustering clustering;
};

int distinct_final_ranks(const core::Clustering& c) {
    std::set<int> ranks;
    for (const auto& fin : c.final_assignment) ranks.insert(fin.rank);
    return static_cast<int>(ranks.size());
}

std::vector<int> final_labels(const core::Clustering& c) {
    std::vector<int> labels;
    labels.reserve(c.final_assignment.size());
    for (const auto& fin : c.final_assignment) labels.push_back(fin.rank);
    return labels;
}

} // namespace

int main(int argc, char** argv) try {
    support::CliParser cli("ablation_bootstrap — bootstrap knob sensitivity");
    bench::add_common_options(cli);
    if (!cli.parse(argc, argv)) return 0;
    const std::uint64_t seed = bench::seed(cli);
    const std::size_t rep = bench::repetitions(cli);

    const workloads::TaskChain chain = workloads::paper_rls_chain(10);
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    const auto variants = workloads::enumerate_assignments(chain.size());

    const auto run = [&](std::size_t n, core::BootstrapComparatorConfig cmp_cfg,
                         const std::string& label) {
        stats::Rng rng(seed);
        const core::MeasurementSet set =
            core::measure_variants(executor, chain, variants, n, rng);
        const core::BootstrapComparator comparator(cmp_cfg);
        const core::RelativeClusterer clusterer(
            comparator, core::ClustererConfig{rep, seed + 1});
        return Row{label, clusterer.cluster(set)};
    };

    std::vector<Row> rows;

    // N sweep at default knobs.
    for (const std::size_t n : {10u, 30u, 100u, 500u}) {
        rows.push_back(run(n, {}, "N=" + std::to_string(n)));
    }
    // Rounds sweep.
    for (const std::size_t r : {20u, 100u, 500u}) {
        core::BootstrapComparatorConfig cfg;
        cfg.rounds = r;
        rows.push_back(run(30, cfg, "R=" + std::to_string(r)));
    }
    // Tie-band sweep.
    for (const double eps : {0.0, 0.02, 0.05, 0.15}) {
        core::BootstrapComparatorConfig cfg;
        cfg.tie_epsilon = eps;
        rows.push_back(run(30, cfg, "eps=" + str::fixed(eps, 2)));
    }
    // Decision-threshold sweep.
    for (const double theta : {0.5, 0.8, 0.9, 0.99}) {
        core::BootstrapComparatorConfig cfg;
        cfg.decision_threshold = theta;
        rows.push_back(run(30, cfg, "theta=" + str::fixed(theta, 2)));
    }

    bench::section("Clustering vs bootstrap knobs (Table I workload)");
    support::AsciiTable table({"Setting", "k", "DDA", "DDD", "AAD", "ARI vs default"},
                              {support::Align::Left, support::Align::Right,
                               support::Align::Right, support::Align::Right,
                               support::Align::Right, support::Align::Right});
    // Reference labeling: default knobs at N = 30 (second entry of the N sweep).
    const std::vector<int> reference = final_labels(rows[1].clustering);
    // The measurement set uses paper enumeration order: DDD=0, DDA=1, ...
    stats::Rng name_rng(seed);
    const core::MeasurementSet names =
        core::measure_variants(executor, chain, variants, 2, name_rng);
    const std::size_t idx_dda = names.index_of("algDDA");
    const std::size_t idx_ddd = names.index_of("algDDD");
    const std::size_t idx_aad = names.index_of("algAAD");

    for (const Row& row : rows) {
        const std::vector<int> labels = final_labels(row.clustering);
        table.add_row({row.label, std::to_string(distinct_final_ranks(row.clustering)),
                       "C" + std::to_string(row.clustering.final_rank(idx_dda)),
                       "C" + std::to_string(row.clustering.final_rank(idx_ddd)),
                       "C" + std::to_string(row.clustering.final_rank(idx_aad)),
                       str::fixed(stats::adjusted_rand_index(labels, reference), 2)});
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf(
        "\nReading: a huge tie band (eps = 0.15) or a permissive threshold\n"
        "(theta = 0.5) collapse/split the structure; the defaults (eps = 0.02,\n"
        "theta = 0.9, R = 100) hold the paper's five-class shape, and growing\n"
        "N sharpens the borderline pairs without changing the winner/loser.\n");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
