#include "generator.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

namespace workloads = relperf::workloads;
using relperf::stats::Rng;
using workloads::GeneratorConfig;

TEST(RandomChain, RespectsConfiguredRanges) {
    GeneratorConfig config;
    config.min_tasks = 2;
    config.max_tasks = 5;
    config.min_size = 10;
    config.max_size = 20;
    config.min_iters = 3;
    config.max_iters = 7;

    Rng rng(17);
    for (int trial = 0; trial < 50; ++trial) {
        const workloads::TaskChain chain = workloads::random_chain(config, rng);
        EXPECT_GE(chain.size(), 2u);
        EXPECT_LE(chain.size(), 5u);
        for (const auto& t : chain.tasks) {
            EXPECT_GE(t.size, 10u);
            EXPECT_LE(t.size, 20u);
            EXPECT_GE(t.iters, 3u);
            EXPECT_LE(t.iters, 7u);
        }
    }
}

TEST(RandomChain, SeedDeterministic) {
    const GeneratorConfig config;
    Rng a(5);
    Rng b(5);
    const auto ca = workloads::random_chain(config, a);
    const auto cb = workloads::random_chain(config, b);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca.tasks[i].size, cb.tasks[i].size);
        EXPECT_EQ(ca.tasks[i].iters, cb.tasks[i].iters);
        EXPECT_EQ(ca.tasks[i].kind, cb.tasks[i].kind);
    }
}

TEST(RandomChain, GemmProbabilityExtremes) {
    GeneratorConfig all_gemm;
    all_gemm.gemm_prob = 1.0;
    GeneratorConfig all_rls;
    all_rls.gemm_prob = 0.0;

    Rng rng(23);
    for (int trial = 0; trial < 10; ++trial) {
        for (const auto& t : workloads::random_chain(all_gemm, rng).tasks) {
            EXPECT_EQ(t.kind, workloads::TaskKind::GemmLoop);
        }
        for (const auto& t : workloads::random_chain(all_rls, rng).tasks) {
            EXPECT_EQ(t.kind, workloads::TaskKind::RlsLoop);
        }
    }
}

TEST(RandomChain, TaskNamesAreSequential) {
    const GeneratorConfig config;
    Rng rng(31);
    const auto chain = workloads::random_chain(config, rng);
    for (std::size_t i = 0; i < chain.size(); ++i) {
        EXPECT_EQ(chain.tasks[i].name, "L" + std::to_string(i + 1));
    }
}

TEST(RandomChain, DefaultConfigLeavesBackendInherited) {
    const GeneratorConfig config;
    Rng rng(41);
    EXPECT_TRUE(workloads::random_chain(config, rng).backend.empty());
}

TEST(RandomChain, DrawsBackendFromConfiguredAxis) {
    GeneratorConfig config;
    config.backends = {"portable", "reference"};
    Rng rng(43);
    bool saw_portable = false;
    bool saw_reference = false;
    for (int trial = 0; trial < 64; ++trial) {
        const std::string backend =
            workloads::random_chain(config, rng).backend;
        ASSERT_TRUE(backend == "portable" || backend == "reference") << backend;
        saw_portable = saw_portable || backend == "portable";
        saw_reference = saw_reference || backend == "reference";
    }
    // Uniform draw over two entries: 64 trials miss one side with p = 2^-63.
    EXPECT_TRUE(saw_portable);
    EXPECT_TRUE(saw_reference);

    config.backends = {"blas"};
    EXPECT_EQ(workloads::random_chain(config, rng).backend, "blas");
}

TEST(RandomChain, BackendDrawIsSeedDeterministic) {
    GeneratorConfig config;
    config.backends = {"portable", "reference", "blas"};
    Rng a(5);
    Rng b(5);
    for (int trial = 0; trial < 10; ++trial) {
        EXPECT_EQ(workloads::random_chain(config, a).backend,
                  workloads::random_chain(config, b).backend);
    }
}

TEST(RandomChain, InvalidConfigThrows) {
    Rng rng(1);
    GeneratorConfig bad;
    bad.min_tasks = 5;
    bad.max_tasks = 2;
    EXPECT_THROW((void)workloads::random_chain(bad, rng), relperf::InvalidArgument);

    GeneratorConfig bad_size;
    bad_size.min_size = 1;
    EXPECT_THROW((void)workloads::random_chain(bad_size, rng),
                 relperf::InvalidArgument);

    GeneratorConfig bad_prob;
    bad_prob.gemm_prob = 1.5;
    EXPECT_THROW((void)workloads::random_chain(bad_prob, rng),
                 relperf::InvalidArgument);

    GeneratorConfig bad_backend;
    bad_backend.backends = {"portable", ""};
    EXPECT_THROW((void)workloads::random_chain(bad_backend, rng),
                 relperf::InvalidArgument);
}
