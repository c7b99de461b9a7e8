//! Measured (not simulated) relative-performance analysis on *this* machine,
//! following the paper's footnote 2: the edge device is emulated with one
//! OpenMP thread, the accelerator with the full machine plus an artificial
//! per-launch dispatch delay. Every measurement below is a real wall-clock
//! execution of the dense-linear-algebra chain.
//!
//!   $ ./measured_on_this_machine
//!   $ ./measured_on_this_machine --sizes 64,160 --iters 2 --n 15

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "sim/real_executor.hpp"
#include "support/cli.hpp"
#include "support/str.hpp"

#include <cstdio>
#include <exception>

using namespace relperf;

int main(int argc, char** argv) try {
    support::CliParser cli(
        "measured_on_this_machine — wall-clock relative performance");
    cli.add_option("sizes", "comma-separated task sizes", "48,160");
    cli.add_option("iters", "loop iterations per task", "2");
    cli.add_option("n", "measurements per split", "10");
    cli.add_option("dispatch-us", "artificial accelerator dispatch delay (us)",
                   "200");
    cli.add_option("seed", "workload seed", "3");
    if (!cli.parse(argc, argv)) return 0;
    const std::vector<std::size_t> sizes =
        str::parse_size_list(cli.value("sizes"), "--sizes");
    const std::size_t iters = str::parse_positive_size(cli.value("iters"), "--iters");
    const std::size_t n = str::parse_positive_size(cli.value("n"), "--n");
    const double dispatch_us =
        str::parse_double(cli.value("dispatch-us"), "--dispatch-us");
    const std::uint64_t seed = str::parse_u64(cli.value("seed"), "--seed");

    const workloads::TaskChain chain =
        workloads::make_rls_chain(sizes, iters, "measured-chain");

    // Device = 1 thread. Accelerator = all threads, but each kernel launch
    // pays an artificial dispatch delay (emulating framework/offload
    // overheads, paper footnote 2).
    const sim::EmulatedDevice device{1, 0.0, 0.0};
    const sim::EmulatedDevice accelerator{
        0, dispatch_us * 1e-6, 1e-4};
    const sim::RealExecutor executor(device, accelerator);

    std::printf("measuring %zu splits of '%s' x %zu runs each (real wall clock)"
                "...\n\n",
                (std::size_t{1} << chain.size()), chain.name.c_str(), n);

    stats::Rng rng(seed);
    core::MeasurementSet measurements = core::measure_variants_real(
        executor, chain, workloads::enumerate_assignments(chain.size()), n, rng,
        /*warmup=*/2);

    std::fputs(core::render_summary_table(measurements).c_str(), stdout);
    std::puts("\nDistributions (shared axis):");
    std::fputs(core::render_distributions(measurements, 24, 40).c_str(), stdout);

    core::AnalysisConfig config;
    config.clustering.repetitions = 100;
    const core::AnalysisResult result =
        core::analyze_measurements(std::move(measurements), config);

    std::puts("Performance classes on this machine:");
    std::fputs(core::render_cluster_table(result.clustering, result.measurements)
                   .c_str(),
               stdout);
    std::puts("\nFinal assignment:");
    std::fputs(core::render_final_table(result.clustering, result.measurements)
                   .c_str(),
               stdout);
    std::puts("\nNote: the classes depend on this machine's core count, load\n"
              "and the dispatch delay — rerun with other --dispatch-us values\n"
              "to watch splits migrate between classes (paper Sec. I).");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
