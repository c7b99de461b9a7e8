//! Ablation A1: how does the *comparison strategy* change the clustering?
//! Runs the Table I workload through the paper's bootstrap comparator and
//! through the classical baselines (Mann-Whitney, Kolmogorov-Smirnov, naive
//! mean/median with tolerance), printing the final classes side by side.

#include "bench_common.hpp"
#include "core/classical_comparators.hpp"
#include "core/report.hpp"
#include "sim/profile.hpp"
#include "support/table.hpp"
#include "workloads/chain.hpp"

#include <cstdio>
#include <exception>
#include <memory>

using namespace relperf;

int main(int argc, char** argv) try {
    support::CliParser cli("ablation_comparators — comparator strategy ablation");
    bench::add_common_options(cli);
    cli.add_option("n", "measurements per algorithm", "30");
    if (!cli.parse(argc, argv)) return 0;
    const std::uint64_t seed = bench::seed(cli);
    const std::size_t rep = bench::repetitions(cli);
    const std::size_t n = str::parse_positive_size(cli.value("n"), "--n");

    const workloads::TaskChain chain = workloads::paper_rls_chain(10);
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    const auto variants = workloads::enumerate_assignments(chain.size());

    stats::Rng rng(seed);
    const core::MeasurementSet set =
        core::measure_variants(executor, chain, variants, n, rng);

    std::vector<std::unique_ptr<core::Comparator>> comparators;
    comparators.push_back(std::make_unique<core::BootstrapComparator>());
    comparators.push_back(std::make_unique<core::MannWhitneyComparator>());
    comparators.push_back(std::make_unique<core::KsComparator>());
    comparators.push_back(std::make_unique<core::SummaryComparator>(
        core::SummaryComparator::Statistic::Mean, 0.02));
    comparators.push_back(std::make_unique<core::SummaryComparator>(
        core::SummaryComparator::Statistic::Median, 0.02));

    // Final class of every algorithm under every comparator.
    std::vector<core::Clustering> clusterings;
    std::vector<std::string> header = {"Algorithm"};
    for (const auto& cmp : comparators) {
        const core::RelativeClusterer clusterer(*cmp,
                                                core::ClustererConfig{rep, seed + 1});
        clusterings.push_back(clusterer.cluster(set));
        header.push_back(cmp->name());
    }

    bench::section("Final performance class per algorithm per comparator");
    support::AsciiTable table(header);
    for (std::size_t alg = 0; alg < set.size(); ++alg) {
        std::vector<std::string> row = {set.name(alg)};
        for (const auto& clustering : clusterings) {
            row.push_back("C" + std::to_string(clustering.final_rank(alg)));
        }
        table.add_row(std::move(row));
    }
    std::fputs(table.render().c_str(), stdout);

    bench::section("Cluster counts");
    for (std::size_t i = 0; i < comparators.size(); ++i) {
        int distinct = 0;
        std::vector<bool> seen(set.size() + 1, false);
        for (const auto& fin : clusterings[i].final_assignment) {
            if (!seen[static_cast<std::size_t>(fin.rank)]) {
                seen[static_cast<std::size_t>(fin.rank)] = true;
                ++distinct;
            }
        }
        std::printf("%-20s k = %d\n", comparators[i]->name().c_str(), distinct);
    }

    std::printf(
        "\nReading: the bootstrap comparator's tie band absorbs borderline\n"
        "gaps and reproduces the paper's five-class structure; the\n"
        "hypothesis-test and single-statistic baselines call more borderline\n"
        "pairs 'different' and fragment the middle band into extra classes\n"
        "whose boundaries move from sample to sample (rerun with --seed).\n");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
