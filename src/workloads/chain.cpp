#include "workloads/chain.hpp"

#include "support/error.hpp"

namespace relperf::workloads {

TaskChain paper_rls_chain(std::size_t iters) {
    RELPERF_REQUIRE(iters > 0, "paper_rls_chain: iters must be positive");
    TaskChain chain;
    chain.name = "paper-rls";
    chain.tasks = {
        TaskSpec{"L1", TaskKind::RlsLoop, 50, iters, std::nullopt},
        TaskSpec{"L2", TaskKind::RlsLoop, 75, iters, std::nullopt},
        TaskSpec{"L3", TaskKind::RlsLoop, 300, iters, std::nullopt},
    };
    return chain;
}

TaskChain two_loop_chain() {
    TaskChain chain;
    chain.name = "two-loop-gemm";
    // Aggregate, calibrated footprints (workloads.TwoLoopChain.MatchesFigure1a
    // pins their shape, sim.Fig1bProfile.* the resulting means):
    //  L1: high arithmetic intensity (2.5 GFLOP over 10 MB) -> offload wins.
    //  L2: "larger matrix-matrix multiplication" streaming 800 MB for
    //      4 GFLOP -> the data movement slightly exceeds the speed-up gain
    //      (paper Sec. I discussion of Figure 1b).
    TaskSpec l1{"L1", TaskKind::GemmLoop, 512, 1,
                TaskCost{2.5e9, 10.0e6, 8.0, 60.0}};
    TaskSpec l2{"L2", TaskKind::GemmLoop, 2048, 1,
                TaskCost{4.0e9, 800.0e6, 8.0, 60.0}};
    chain.tasks = {l1, l2};
    return chain;
}

TaskChain make_rls_chain(const std::vector<std::size_t>& sizes, std::size_t iters,
                         const std::string& name, const std::string& backend) {
    RELPERF_REQUIRE(!sizes.empty(), "make_rls_chain: need at least one task");
    RELPERF_REQUIRE(iters > 0, "make_rls_chain: iters must be positive");
    TaskChain chain;
    chain.name = name;
    chain.backend = backend;
    chain.tasks.reserve(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        chain.tasks.push_back(TaskSpec{"L" + std::to_string(i + 1),
                                       TaskKind::RlsLoop, sizes[i], iters,
                                       std::nullopt});
    }
    return chain;
}

FlopSplit flop_split(const TaskChain& chain,
                     const VariantAssignment& assignment) {
    RELPERF_REQUIRE(chain.size() == assignment.size(),
                    "flop_split: assignment length must match chain length");
    FlopSplit split;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        const double flops = task_cost(chain.tasks[i]).flops;
        if (assignment.at(i).placement == Placement::Device) {
            split.on_device += flops;
        } else {
            split.on_accelerator += flops;
        }
    }
    return split;
}

double bytes_over_link(const TaskChain& chain,
                       const VariantAssignment& assignment) {
    RELPERF_REQUIRE(chain.size() == assignment.size(),
                    "bytes_over_link: assignment length must match chain length");
    double bytes = 0.0;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        if (assignment.at(i).placement == Placement::Accelerator) {
            const TaskCost cost = task_cost(chain.tasks[i]);
            bytes += cost.bytes_in + cost.bytes_out;
        }
    }
    return bytes;
}

} // namespace relperf::workloads
