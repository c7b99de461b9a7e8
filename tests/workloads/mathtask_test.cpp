#include "workloads/mathtask.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace workloads = relperf::workloads;
using relperf::stats::Rng;

TEST(RunRlsTask, ReturnsFinitePositivePenalty) {
    Rng rng(1);
    const double penalty = workloads::run_rls_task(16, 3, 0.0, rng);
    EXPECT_TRUE(std::isfinite(penalty));
    EXPECT_GT(penalty, 0.0);
}

TEST(RunRlsTask, SeedDeterministic) {
    Rng a(42);
    Rng b(42);
    EXPECT_DOUBLE_EQ(workloads::run_rls_task(12, 2, 0.5, a),
                     workloads::run_rls_task(12, 2, 0.5, b));
}

TEST(RunRlsTask, InvalidInputsThrow) {
    Rng rng(1);
    EXPECT_THROW((void)workloads::run_rls_task(0, 3, 0.0, rng),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)workloads::run_rls_task(8, 0, 0.0, rng),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)workloads::run_rls_task(8, 1, -1.0, rng),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)workloads::run_rls_task(8, 1,
                                               std::numeric_limits<double>::quiet_NaN(),
                                               rng),
                 relperf::InvalidArgument);
}

TEST(RunGemmTask, ChecksumIsPositiveAndDeterministic) {
    Rng a(7);
    Rng b(7);
    const double ca = workloads::run_gemm_task(10, 2, a);
    const double cb = workloads::run_gemm_task(10, 2, b);
    EXPECT_GT(ca, 0.0);
    EXPECT_DOUBLE_EQ(ca, cb);
}

TEST(RunTask, DispatchesOnKind) {
    const workloads::TaskSpec rls{"L", workloads::TaskKind::RlsLoop, 12, 1,
                                  std::nullopt};
    const workloads::TaskSpec gemm{"L", workloads::TaskKind::GemmLoop, 12, 1,
                                   std::nullopt};
    Rng r1(3);
    Rng r2(3);
    // Same seed, different kinds -> different computations.
    const double a = workloads::run_task(rls, 0.0, r1);
    const double g = workloads::run_task(gemm, 0.0, r2);
    EXPECT_TRUE(std::isfinite(a));
    EXPECT_TRUE(std::isfinite(g));
    EXPECT_NE(a, g);
}

TEST(RunChain, MakeRlsChainForwardsTheBackend) {
    const workloads::TaskChain chain =
        workloads::make_rls_chain({8}, 1, "named", "blas");
    EXPECT_EQ(chain.backend, "blas");
    EXPECT_EQ(chain.name, "named");
}
