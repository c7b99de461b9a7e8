//! Variant pricing in the simulated apparatus: per-backend throughput
//! multipliers (Platform::backend_gains), the bit-identical guarantee for
//! 1.0-multiplier backends, and per-task ScopedBackend selection in the
//! RealExecutor (verified through a registered counting backend).

#include "core/pipeline.hpp"
#include "linalg/backend.hpp"
#include "sim/analytic.hpp"
#include "sim/executor.hpp"
#include "sim/real_executor.hpp"
#include "sim/spec.hpp"
#include "support/error.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace linalg = relperf::linalg;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using relperf::stats::Rng;
using workloads::VariantAssignment;

namespace {

sim::Platform gained_platform() {
    sim::Platform p = sim::paper_cpu_gpu_platform();
    p.backend_gains.entries = {
        {"blas", 0.5, 0.9},      // vendor kernels: 2x faster on the CPU
        {"reference", 3.0, 1.0}, // textbook loops: 3x slower on the CPU
    };
    return p;
}

workloads::TaskChain sim_chain() {
    return workloads::make_rls_chain({50, 75, 300}, 10, "variant-sim");
}

} // namespace

TEST(BackendGains, LookupDefaultsToOne) {
    const sim::Platform p = gained_platform();
    EXPECT_DOUBLE_EQ(p.backend_gains.device_multiplier("blas"), 0.5);
    EXPECT_DOUBLE_EQ(p.backend_gains.accelerator_multiplier("blas"), 0.9);
    EXPECT_DOUBLE_EQ(p.backend_gains.device_multiplier("portable"), 1.0);
    EXPECT_DOUBLE_EQ(p.backend_gains.device_multiplier(""), 1.0);
}

TEST(BackendGains, ValidateRejectsBadEntries) {
    sim::Platform p = sim::paper_cpu_gpu_platform();
    p.backend_gains.entries = {{"blas", 0.0, 1.0}};
    EXPECT_THROW(p.validate(), relperf::InvalidArgument);
    p.backend_gains.entries = {{"", 1.0, 1.0}};
    EXPECT_THROW(p.validate(), relperf::InvalidArgument);
    p.backend_gains.entries = {{"blas", 1.0, 1.0}, {"blas", 2.0, 1.0}};
    EXPECT_THROW(p.validate(), relperf::InvalidArgument);
}

TEST(AnalyticCostModel, BackendMultiplierComesFromThePlatform) {
    const sim::AnalyticCostModel model(gained_platform());
    EXPECT_DOUBLE_EQ(model.backend_multiplier("blas", workloads::Placement::Device),
                     0.5);
    EXPECT_DOUBLE_EQ(
        model.backend_multiplier("blas", workloads::Placement::Accelerator), 0.9);
    EXPECT_DOUBLE_EQ(
        model.backend_multiplier("unknown", workloads::Placement::Device), 1.0);
}

TEST(SimulatedExecutor, VariantWithUnitMultipliersIsBitIdentical) {
    // A platform without gains prices every backend at 1.0: the variant path
    // must reproduce the plain path bit for bit, noise included.
    const sim::AnalyticCostModel model(
        sim::AnalyticCostModel(sim::paper_cpu_gpu_platform()));
    const sim::SimulatedExecutor exec(model, sim::NoiseModel{});
    const workloads::TaskChain chain = sim_chain();
    Rng r1(7);
    Rng r2(7);
    const auto plain =
        exec.measure(chain, VariantAssignment("DAD"), 10, r1);
    const auto variant =
        exec.measure(chain, VariantAssignment("D:blas,A:reference,D"), 10, r2);
    ASSERT_EQ(plain.size(), variant.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_DOUBLE_EQ(plain[i], variant[i]);
    }
}

TEST(SimulatedExecutor, GainsScaleTheComputePartOnly) {
    const sim::AnalyticCostModel model(gained_platform());
    const sim::SimulatedExecutor exec(model, sim::NoiseModel::none());
    const workloads::TaskChain chain = sim_chain();

    const sim::TimeBreakdown base =
        exec.expected_breakdown(chain, VariantAssignment("DDD"));
    const sim::TimeBreakdown slow =
        exec.expected_breakdown(chain, VariantAssignment(
                                           "D:reference,D:reference,D:reference"));
    const sim::TimeBreakdown fast = exec.expected_breakdown(
        chain, VariantAssignment("D:blas,D:blas,D:blas"));

    // All-device chains have no staging, so the multipliers act exactly.
    EXPECT_NEAR(slow.device_busy_s, 3.0 * base.device_busy_s, 1e-12);
    EXPECT_NEAR(fast.device_busy_s, 0.5 * base.device_busy_s, 1e-12);
    EXPECT_DOUBLE_EQ(slow.link_busy_s, base.link_busy_s);

    // Mixed per-task backends: each task is scaled by its own multiplier.
    const sim::TimeBreakdown mixed = exec.expected_breakdown(
        chain, VariantAssignment("D:blas,D,D:reference"));
    const auto task_seconds = [&](std::size_t i) {
        return model
            .task_parts(chain, i, workloads::Placement::Device,
                        workloads::Placement::Device)
            .compute_s;
    };
    EXPECT_NEAR(mixed.device_busy_s,
                0.5 * task_seconds(0) + task_seconds(1) + 3.0 * task_seconds(2),
                1e-12);
}

TEST(SimulatedExecutor, ChainDefaultBackendIsPricedWhenInherited) {
    const sim::AnalyticCostModel model(gained_platform());
    const sim::SimulatedExecutor exec(model, sim::NoiseModel::none());
    workloads::TaskChain chain = sim_chain();
    chain.backend = "reference";
    // Inherit-everything variant resolves every task to the chain default.
    const double inherited =
        exec.expected_seconds(chain, VariantAssignment("DDD"));
    const double expl = exec.expected_seconds(
        chain, VariantAssignment("D:reference,D:reference,D:reference"));
    EXPECT_DOUBLE_EQ(inherited, expl);
    // A per-task policy overrides the default.
    chain.backend = "blas";
    const double overridden = exec.expected_seconds(
        chain, VariantAssignment("D:reference,D:blas,D:blas"));
    const double all_blas = exec.expected_seconds(
        chain, VariantAssignment("DDD"));
    EXPECT_GT(overridden, all_blas);
}

namespace {

/// Counting backend: forwards to the reference kernels and counts every
/// dispatch, so a test can prove which tasks ran on it.
std::atomic<int> g_counted_calls{0};

void counted_gemm(double alpha, const linalg::Matrix& a, const linalg::Matrix& b,
                  double beta, linalg::Matrix& c) {
    ++g_counted_calls;
    linalg::backend(linalg::kReferenceBackend).gemm(alpha, a, b, beta, c);
}
void counted_syrk(const linalg::Matrix& a, linalg::Matrix& c) {
    ++g_counted_calls;
    linalg::backend(linalg::kReferenceBackend).syrk(a, c);
}
void counted_cholesky(linalg::Matrix& a) {
    ++g_counted_calls;
    linalg::backend(linalg::kReferenceBackend).cholesky(a);
}

const char* counting_backend_name() {
    static const char* name = [] {
        linalg::register_backend(linalg::Backend{
            "counting-variant-test", "test-only counting backend",
            &counted_gemm, &counted_syrk, &counted_cholesky});
        return "counting-variant-test";
    }();
    return name;
}

} // namespace

TEST(RealExecutor, ScopesTheBackendPerTask) {
    const std::string counting = counting_backend_name();
    const sim::RealExecutor exec(sim::EmulatedDevice{1, 0.0, 0.0},
                                 sim::EmulatedDevice{1, 0.0, 0.0});
    const workloads::TaskChain chain =
        workloads::make_rls_chain({16, 16}, 1, "scoped");
    Rng rng(3);

    // No task on the counting backend: zero dispatches.
    g_counted_calls = 0;
    (void)exec.run_once(chain, VariantAssignment("D,A"), rng);
    EXPECT_EQ(g_counted_calls.load(), 0);

    // One task on it: some dispatches.
    g_counted_calls = 0;
    (void)exec.run_once(
        chain, VariantAssignment("D:" + counting + ",A"), rng);
    const int one_task = g_counted_calls.load();
    EXPECT_GT(one_task, 0);

    // Both tasks on it: exactly twice the single-task count (equal sizes and
    // iteration counts make the kernel call counts equal per task).
    g_counted_calls = 0;
    (void)exec.run_once(
        chain,
        VariantAssignment("D:" + counting + ",A:" + counting), rng);
    EXPECT_EQ(g_counted_calls.load(), 2 * one_task);
}

TEST(RealExecutor, PerTaskPolicyOverridesChainDefault) {
    const std::string counting = counting_backend_name();
    const sim::RealExecutor exec(sim::EmulatedDevice{1, 0.0, 0.0},
                                 sim::EmulatedDevice{1, 0.0, 0.0});
    workloads::TaskChain chain =
        workloads::make_rls_chain({16, 16}, 1, "scoped-default");
    chain.backend = counting;
    Rng rng(4);

    // Chain default applies to every task that does not override it.
    g_counted_calls = 0;
    (void)exec.run_once(chain, VariantAssignment("DD"), rng);
    const int both = g_counted_calls.load();
    EXPECT_GT(both, 0);

    // Overriding one task back to portable halves the counted dispatches.
    g_counted_calls = 0;
    (void)exec.run_once(chain, VariantAssignment("D:portable,D"), rng);
    EXPECT_EQ(g_counted_calls.load(), both / 2);
}

TEST(RealExecutor, MeasureVariantsRealUsesPerVariantStreams) {
    // The variant batch API: one stream per variant position, names from
    // alg_name(), n samples each.
    const sim::RealExecutor exec(sim::EmulatedDevice{1, 0.0, 0.0},
                                 sim::EmulatedDevice{1, 0.0, 0.0});
    const workloads::TaskChain chain =
        workloads::make_rls_chain({16, 16}, 1, "variant-batch");
    const std::vector<workloads::VariantAssignment> variants = {
        VariantAssignment("D:portable,D:reference"),
        VariantAssignment("DA"),
    };
    Rng rng(11);
    const relperf::core::MeasurementSet set =
        relperf::core::measure_variants_real(exec, chain, variants, 3, rng, 0);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_TRUE(set.contains("algD:portable,D:reference"));
    EXPECT_TRUE(set.contains("algDA"));
    for (std::size_t i = 0; i < set.size(); ++i) {
        ASSERT_EQ(set.samples(i).size(), 3u);
        for (const double s : set.samples(i)) EXPECT_GT(s, 0.0);
    }
}

TEST(RealExecutor, UnknownVariantBackendThrowsWithRegistry) {
    const sim::RealExecutor exec(sim::EmulatedDevice{1, 0.0, 0.0},
                                 sim::EmulatedDevice{1, 0.0, 0.0});
    const workloads::TaskChain chain =
        workloads::make_rls_chain({8}, 1, "typo");
    Rng rng(5);
    try {
        (void)exec.run_once(chain, VariantAssignment("D:nonesuch"), rng);
        FAIL() << "expected InvalidArgument";
    } catch (const relperf::InvalidArgument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("nonesuch"), std::string::npos) << what;
        EXPECT_NE(what.find("registered"), std::string::npos) << what;
        EXPECT_NE(what.find("portable"), std::string::npos) << what;
    }
}
