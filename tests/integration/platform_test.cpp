//! Cross-platform integration: the clusters are "specific to a given
//! computing architecture" (paper Sec. I) — the same chain must cluster
//! differently on different simulated platforms, and the analytic cost model
//! must produce sensible orderings on each preset.

#include "core/pipeline.hpp"
#include "sim/analytic.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

namespace core = relperf::core;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using workloads::VariantAssignment;

namespace {

core::AnalysisResult analyze_on(const sim::Platform& platform,
                                const workloads::TaskChain& chain) {
    const sim::AnalyticCostModel model(platform);
    const sim::SimulatedExecutor executor(model, sim::NoiseModel{});
    core::AnalysisConfig config;
    config.measurements_per_alg = 30;
    config.clustering.repetitions = 50;
    return core::analyze_chain(executor, chain,
                               workloads::enumerate_assignments(chain.size()),
                               config);
}

} // namespace

TEST(PlatformSweep, RpiOffloadsEverythingBigOverSlowLink) {
    // On the Raspberry Pi + LAN server preset the device is ~100x slower
    // than the server; for a compute-heavy chain the all-offload assignment
    // must beat the all-local one despite the slow link.
    const workloads::TaskChain chain = workloads::make_rls_chain({256, 256}, 10);
    const sim::AnalyticCostModel model(sim::rpi_server_platform());
    const sim::SimulatedExecutor exec(model, sim::NoiseModel::none());
    EXPECT_LT(exec.expected_seconds(chain, VariantAssignment("AA")),
              exec.expected_seconds(chain, VariantAssignment("DD")));
}

TEST(PlatformSweep, TinyTasksStayLocalEverywhere) {
    // Launch overheads + link latency make offloading size-16 tasks lose on
    // every preset.
    const workloads::TaskChain chain = workloads::make_rls_chain({16}, 2);
    for (const sim::Platform& platform :
         {sim::paper_cpu_gpu_platform(), sim::rpi_server_platform(),
          sim::smartphone_gpu_platform()}) {
        const sim::AnalyticCostModel model(platform);
        const sim::SimulatedExecutor exec(model, sim::NoiseModel::none());
        EXPECT_LT(exec.expected_seconds(chain, VariantAssignment("D")),
                  exec.expected_seconds(chain, VariantAssignment("A")))
            << platform.name;
    }
}

TEST(PlatformSweep, ClusteringsDifferAcrossPlatforms) {
    const workloads::TaskChain chain = workloads::make_rls_chain({64, 256}, 5);
    const core::AnalysisResult on_rpi = analyze_on(sim::rpi_server_platform(), chain);
    const core::AnalysisResult on_phone =
        analyze_on(sim::smartphone_gpu_platform(), chain);

    // Extract final rank vectors in assignment order.
    std::vector<int> ranks_rpi;
    std::vector<int> ranks_phone;
    for (std::size_t i = 0; i < 4; ++i) {
        ranks_rpi.push_back(on_rpi.clustering.final_assignment[i].rank);
        ranks_phone.push_back(on_phone.clustering.final_assignment[i].rank);
    }
    // The platforms have opposite offload economics for this chain; the
    // cluster structures must differ somewhere.
    EXPECT_NE(ranks_rpi, ranks_phone);
}

TEST(PlatformSweep, CpuOnlyPlatformTreatsPlacementsSymmetrically) {
    // Identical cores, fast shared-memory "link": placements are nearly
    // interchangeable, so everything clusters together.
    const workloads::TaskChain chain = workloads::make_rls_chain({128}, 3);
    const core::AnalysisResult r = analyze_on(sim::cpu_only_platform(), chain);
    EXPECT_EQ(r.clustering.final_rank(r.measurements.index_of("algD")),
              r.clustering.final_rank(r.measurements.index_of("algA")));
}
