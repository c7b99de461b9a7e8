//! End-to-end pipeline over *measured* (not simulated) executions: the paper's
//! footnote-2 recipe — emulate the edge device with one thread and the
//! accelerator with the full machine plus artificial dispatch delays — then
//! cluster the resulting wall-clock distributions.

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "linalg/gemm.hpp"
#include "sim/real_executor.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

namespace core = relperf::core;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using relperf::stats::Rng;

TEST(RealPipeline, SingleLoopOffloadClustering) {
    // One compute-heavy task: 1 thread vs all threads, no artificial delay.
    // The accelerator ("A") must win on a big enough kernel, and the
    // pipeline must put algA in a class at least as good as algD.
    //
    // On a single-threaded machine (or a serial build) "all threads" equals
    // one thread, both devices run identical code, and the strict speedup
    // below is decided by scheduler noise — the premise doesn't hold there.
    if (relperf::linalg::gemm_threads() <= 1) {
        GTEST_SKIP() << "accelerator cannot outrun the edge device with "
                        "only one hardware thread";
    }
    const workloads::TaskChain chain =
        workloads::make_rls_chain({192}, 2, "one-task");
    const sim::RealExecutor executor(sim::EmulatedDevice{1, 0.0, 0.0},
                                     sim::EmulatedDevice{0, 0.0, 0.0});
    Rng rng(1);
    const auto variants = workloads::enumerate_assignments(1);
    core::MeasurementSet set =
        core::measure_variants_real(executor, chain, variants, 12, rng, 2);

    const double mean_d = set.summary(set.index_of("algD")).mean;
    const double mean_a = set.summary(set.index_of("algA")).mean;
    EXPECT_LT(mean_a, mean_d); // parallel run is faster

    core::AnalysisConfig config;
    config.clustering.repetitions = 50;
    const core::AnalysisResult result =
        core::analyze_measurements(std::move(set), config);
    EXPECT_LE(result.clustering.final_rank(
                  result.measurements.index_of("algA")),
              result.clustering.final_rank(
                  result.measurements.index_of("algD")));
}

TEST(RealPipeline, DispatchDelayMakesOffloadingSmallTasksLose) {
    // Small task + hefty per-launch delay on the accelerator: the edge
    // device must win (the paper's launch-bound regime for size 50).
    const workloads::TaskChain chain =
        workloads::make_rls_chain({32}, 2, "small-task");
    const sim::RealExecutor executor(sim::EmulatedDevice{1, 0.0, 0.0},
                                     sim::EmulatedDevice{0, 2e-3, 0.0});
    Rng rng(2);
    const auto variants = workloads::enumerate_assignments(1);
    const core::MeasurementSet set =
        core::measure_variants_real(executor, chain, variants, 8, rng, 1);
    EXPECT_LT(set.summary(set.index_of("algD")).mean,
              set.summary(set.index_of("algA")).mean);
}

TEST(RealPipeline, ReportRendersOnRealData) {
    const workloads::TaskChain chain = workloads::make_rls_chain({24, 48}, 1, "two");
    const sim::RealExecutor executor(sim::EmulatedDevice{1, 0.0, 0.0},
                                     sim::EmulatedDevice{0, 0.0, 0.0});
    Rng rng(3);
    core::MeasurementSet set = core::measure_variants_real(
        executor, chain, workloads::enumerate_assignments(2), 6, rng, 1);
    const std::string summary = core::render_summary_table(set);
    for (const char* alg : {"algDD", "algDA", "algAD", "algAA"}) {
        EXPECT_NE(summary.find(alg), std::string::npos);
    }
}
