//! Reproduces the paper's **Section IV speed-up discussion**: the mean
//! execution times of algDDD vs algDDA as the loop size n grows. The paper
//! reports a ~0.002 s gap and ~1.05x speed-up at n = 10, growing with n; the
//! sweep also exposes the crossover below which offloading L3 does not pay.

#include "bench_common.hpp"
#include "stats/descriptive.hpp"
#include "sim/profile.hpp"
#include "support/csv.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workloads/chain.hpp"

#include <cstdio>
#include <exception>
#include <memory>

using namespace relperf;

int main(int argc, char** argv) try {
    support::CliParser cli("speedup_n_sweep — paper Sec. IV speed-up vs n");
    bench::add_common_options(cli);
    cli.add_option("n", "measurements per point", "100");
    if (!cli.parse(argc, argv)) return 0;
    const std::size_t n_meas = str::parse_positive_size(cli.value("n"), "--n");
    const std::uint64_t seed = bench::seed(cli);

    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    const std::vector<std::size_t> sweep = {1, 2, 3, 5, 7, 10, 15, 20, 50, 100};

    bench::section("algDDD vs algDDA across loop sizes n");
    support::AsciiTable table(
        {"n", "mean DDD", "mean DDA", "delta", "speed-up", "winner"},
        {support::Align::Right, support::Align::Right, support::Align::Right,
         support::Align::Right, support::Align::Right, support::Align::Left});

    std::unique_ptr<support::CsvWriter> csv;
    if (const auto path = cli.value_optional("csv")) {
        csv = std::make_unique<support::CsvWriter>(
            *path, std::vector<std::string>{"n", "mean_ddd_s", "mean_dda_s",
                                            "speedup"});
    }

    stats::Rng rng(seed);
    for (const std::size_t n : sweep) {
        const workloads::TaskChain chain = workloads::paper_rls_chain(n);
        const double ddd = stats::mean(executor.measure(
            chain, workloads::VariantAssignment("DDD"), n_meas, rng));
        const double dda = stats::mean(executor.measure(
            chain, workloads::VariantAssignment("DDA"), n_meas, rng));
        const double speedup = ddd / dda;
        table.add_row({std::to_string(n), str::human_seconds(ddd),
                       str::human_seconds(dda), str::human_seconds(ddd - dda),
                       str::fixed(speedup, 3),
                       speedup > 1.0 ? "DDA (offload L3)" : "DDD (stay local)"});
        if (csv) {
            csv->add_row({std::to_string(n), str::format("%.9g", ddd),
                          str::format("%.9g", dda), str::format("%.4f", speedup)});
        }
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf(
        "\nPaper reference (Sec. IV, n = 10): delta ~ 0.002 s, speed-up ~ 1.05,\n"
        "increasing with n. The sweep also shows the crossover near n ~ 6-7\n"
        "below which staging costs make offloading L3 unprofitable.\n");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
