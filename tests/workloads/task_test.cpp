#include "workloads/task.hpp"

#include "linalg/gemm.hpp"
#include "linalg/rls.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

namespace workloads = relperf::workloads;
using workloads::TaskCost;
using workloads::TaskKind;
using workloads::TaskSpec;

TEST(OpsPerIteration, MatchesOpGraphs) {
    EXPECT_DOUBLE_EQ(workloads::ops_per_iteration(TaskKind::RlsLoop), 10.0);
    EXPECT_DOUBLE_EQ(workloads::ops_per_iteration(TaskKind::GemmLoop), 3.0);
}

TEST(TaskCostFn, RlsLoopUsesRlsFlops) {
    const TaskSpec spec{"L1", TaskKind::RlsLoop, 50, 10, std::nullopt};
    const TaskCost cost = workloads::task_cost(spec);
    EXPECT_DOUBLE_EQ(cost.flops, 10.0 * relperf::linalg::rls_flops(50));
    EXPECT_DOUBLE_EQ(cost.op_launches, 100.0);
    // Only the penalty scalar crosses devices.
    EXPECT_DOUBLE_EQ(cost.bytes_in, 8.0);
    EXPECT_DOUBLE_EQ(cost.bytes_out, 8.0);
}

TEST(TaskCostFn, GemmLoopStreamsOperands) {
    const TaskSpec spec{"L", TaskKind::GemmLoop, 100, 5, std::nullopt};
    const TaskCost cost = workloads::task_cost(spec);
    EXPECT_DOUBLE_EQ(cost.flops, 5.0 * relperf::linalg::gemm_flops(100, 100, 100));
    EXPECT_DOUBLE_EQ(cost.bytes_in, 5.0 * 2.0 * 100.0 * 100.0 * 8.0);
    EXPECT_DOUBLE_EQ(cost.bytes_out, 5.0 * 100.0 * 100.0 * 8.0);
    EXPECT_DOUBLE_EQ(cost.op_launches, 15.0);
}

TEST(TaskCostFn, OverrideWinsOverDerivation) {
    TaskSpec spec{"L", TaskKind::GemmLoop, 100, 5,
                  TaskCost{1.0, 2.0, 3.0, 4.0}};
    const TaskCost cost = workloads::task_cost(spec);
    EXPECT_DOUBLE_EQ(cost.flops, 1.0);
    EXPECT_DOUBLE_EQ(cost.bytes_in, 2.0);
    EXPECT_DOUBLE_EQ(cost.bytes_out, 3.0);
    EXPECT_DOUBLE_EQ(cost.op_launches, 4.0);
}

TEST(TaskCostFn, InvalidSpecThrows) {
    const TaskSpec zero_size{"L", TaskKind::RlsLoop, 0, 10, std::nullopt};
    EXPECT_THROW((void)workloads::task_cost(zero_size), relperf::InvalidArgument);
    const TaskSpec zero_iters{"L", TaskKind::RlsLoop, 10, 0, std::nullopt};
    EXPECT_THROW((void)workloads::task_cost(zero_iters), relperf::InvalidArgument);
}

TEST(TaskCostFn, CostScalesLinearlyWithIters) {
    const TaskSpec one{"L", TaskKind::RlsLoop, 64, 1, std::nullopt};
    const TaskSpec ten{"L", TaskKind::RlsLoop, 64, 10, std::nullopt};
    EXPECT_DOUBLE_EQ(workloads::task_cost(ten).flops,
                     10.0 * workloads::task_cost(one).flops);
    EXPECT_DOUBLE_EQ(workloads::task_cost(ten).op_launches,
                     10.0 * workloads::task_cost(one).op_launches);
}
