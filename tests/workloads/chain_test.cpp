#include "workloads/chain.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

namespace workloads = relperf::workloads;
using workloads::TaskChain;
using workloads::TaskKind;
using workloads::VariantAssignment;

TEST(PaperRlsChain, MatchesProcedure5) {
    const TaskChain chain = workloads::paper_rls_chain(10);
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(chain.tasks[0].name, "L1");
    EXPECT_EQ(chain.tasks[0].size, 50u);
    EXPECT_EQ(chain.tasks[1].size, 75u);
    EXPECT_EQ(chain.tasks[2].size, 300u);
    for (const auto& t : chain.tasks) {
        EXPECT_EQ(t.kind, TaskKind::RlsLoop);
        EXPECT_EQ(t.iters, 10u);
        EXPECT_FALSE(t.cost_override.has_value());
    }
}

TEST(PaperRlsChain, ZeroItersThrows) {
    EXPECT_THROW((void)workloads::paper_rls_chain(0), relperf::InvalidArgument);
}

TEST(TwoLoopChain, MatchesFigure1a) {
    const TaskChain chain = workloads::two_loop_chain();
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain.tasks[0].kind, TaskKind::GemmLoop);
    ASSERT_TRUE(chain.tasks[0].cost_override.has_value());
    ASSERT_TRUE(chain.tasks[1].cost_override.has_value());
    // L2 is the "larger matrix-matrix multiplication": more data streamed.
    EXPECT_GT(chain.tasks[1].cost_override->bytes_in,
              chain.tasks[0].cost_override->bytes_in);
    // L1 is compute-dense: high arithmetic intensity.
    const double ai1 = chain.tasks[0].cost_override->flops /
                       chain.tasks[0].cost_override->bytes_in;
    const double ai2 = chain.tasks[1].cost_override->flops /
                       chain.tasks[1].cost_override->bytes_in;
    EXPECT_GT(ai1, 10.0 * ai2);
}

TEST(MakeRlsChain, BuildsNamedTasks) {
    const TaskChain chain = workloads::make_rls_chain({16, 32}, 3, "custom");
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain.name, "custom");
    EXPECT_EQ(chain.tasks[0].name, "L1");
    EXPECT_EQ(chain.tasks[1].name, "L2");
    EXPECT_EQ(chain.tasks[1].size, 32u);
    EXPECT_EQ(chain.tasks[0].iters, 3u);
}

TEST(MakeRlsChain, InvalidInputsThrow) {
    EXPECT_THROW((void)workloads::make_rls_chain({}, 3), relperf::InvalidArgument);
    EXPECT_THROW((void)workloads::make_rls_chain({16}, 0), relperf::InvalidArgument);
}

TEST(FlopSplit, PartitionsByPlacement) {
    const TaskChain chain = workloads::paper_rls_chain(10);
    const auto all_device = workloads::flop_split(chain, VariantAssignment("DDD"));
    const auto all_accel = workloads::flop_split(chain, VariantAssignment("AAA"));
    const auto mixed = workloads::flop_split(chain, VariantAssignment("DDA"));

    EXPECT_DOUBLE_EQ(all_device.on_accelerator, 0.0);
    EXPECT_DOUBLE_EQ(all_accel.on_device, 0.0);
    EXPECT_DOUBLE_EQ(all_device.total(), all_accel.total());
    EXPECT_DOUBLE_EQ(mixed.total(), all_device.total());
    EXPECT_GT(mixed.on_accelerator, 0.0);
    EXPECT_GT(mixed.on_device, 0.0);
    // L3 (size 300) dominates the FLOPs: offloading it moves most work.
    EXPECT_GT(mixed.on_accelerator, mixed.on_device);
}

TEST(FlopSplit, LengthMismatchThrows) {
    const TaskChain chain = workloads::paper_rls_chain(10);
    EXPECT_THROW((void)workloads::flop_split(chain, VariantAssignment("DD")),
                 relperf::InvalidArgument);
}

TEST(BytesOverLink, CountsOnlyRemoteTasks) {
    const TaskChain chain = workloads::two_loop_chain();
    EXPECT_DOUBLE_EQ(workloads::bytes_over_link(chain, VariantAssignment("DD")), 0.0);
    const double ad = workloads::bytes_over_link(chain, VariantAssignment("AD"));
    const double da = workloads::bytes_over_link(chain, VariantAssignment("DA"));
    const double aa = workloads::bytes_over_link(chain, VariantAssignment("AA"));
    EXPECT_GT(ad, 0.0);
    EXPECT_GT(da, ad); // L2 streams far more data
    EXPECT_DOUBLE_EQ(aa, ad + da);
}
