//! Thread-clamp contract of the portable kernels: the raw setting
//! (gemm_thread_setting) round-trips, the effective team (gemm_threads) is
//! clamped to 1 in serial (no-OpenMP) builds, results do not depend on the
//! clamp, and the RealExecutor restores the *raw* setting after emulating a
//! device -> accelerator switch (restoring a resolved width would silently
//! pin "library default" to one machine's core count).

#include "linalg/gemm.hpp"

#include "sim/real_executor.hpp"
#include "stats/rng.hpp"
#include "workloads/assignment.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

namespace linalg = relperf::linalg;
using relperf::linalg::Matrix;

namespace {

/// Restores the entering thread setting when a test exits.
class ThreadSettingGuard {
public:
    ThreadSettingGuard() : saved_(linalg::gemm_thread_setting()) {}
    ~ThreadSettingGuard() { linalg::set_gemm_threads(saved_); }

private:
    int saved_;
};

} // namespace

TEST(GemmThreads, RawSettingRoundTrips) {
    const ThreadSettingGuard guard;
    linalg::set_gemm_threads(3);
    EXPECT_EQ(linalg::gemm_thread_setting(), 3);
    linalg::set_gemm_threads(1);
    EXPECT_EQ(linalg::gemm_thread_setting(), 1);
    linalg::set_gemm_threads(0); // library default
    EXPECT_EQ(linalg::gemm_thread_setting(), 0);
}

TEST(GemmThreads, NegativeSettingClampsToDefault) {
    const ThreadSettingGuard guard;
    linalg::set_gemm_threads(-7);
    EXPECT_EQ(linalg::gemm_thread_setting(), 0);
    EXPECT_GE(linalg::gemm_threads(), 1);
}

TEST(GemmThreads, EffectiveTeamIsAlwaysAtLeastOne) {
    const ThreadSettingGuard guard;
    for (const int setting : {0, 1, 2, 16}) {
        linalg::set_gemm_threads(setting);
        EXPECT_GE(linalg::gemm_threads(), 1) << "setting " << setting;
    }
}

#ifdef _OPENMP
TEST(GemmThreads, OpenMpBuildHonorsExplicitSetting) {
    const ThreadSettingGuard guard;
    linalg::set_gemm_threads(5);
    EXPECT_EQ(linalg::gemm_threads(), 5);
}
#else
TEST(GemmThreads, SerialBuildClampsEffectiveTeamToOne) {
    // RELPERF_ENABLE_OPENMP=OFF: the kernels cannot run wider than one
    // thread, so the effective team must report 1 whatever the setting says
    // — while the raw setting itself is preserved for save/restore.
    const ThreadSettingGuard guard;
    for (const int setting : {0, 1, 7, 64}) {
        linalg::set_gemm_threads(setting);
        EXPECT_EQ(linalg::gemm_threads(), 1) << "setting " << setting;
        EXPECT_EQ(linalg::gemm_thread_setting(), setting);
    }
}
#endif

TEST(GemmThreads, ClampDoesNotChangeResults) {
    const ThreadSettingGuard guard;
    relperf::stats::Rng rng(9);
    const Matrix a = Matrix::random_normal(70, 33, rng);
    const Matrix b = Matrix::random_normal(33, 41, rng);

    linalg::set_gemm_threads(1);
    Matrix c1(70, 41);
    linalg::gemm_blocked(1.0, a, b, 0.0, c1);

    linalg::set_gemm_threads(3);
    Matrix c3(70, 41);
    linalg::gemm_blocked(1.0, a, b, 0.0, c3);

    // The blocked kernel partitions work identically for any team size;
    // per-tile accumulation order is fixed, so this is exact.
    EXPECT_EQ(c1.max_abs_diff(c3), 0.0);
}

TEST(GemmThreads, RealExecutorRestoresRawSettingAfterSwitch) {
    const ThreadSettingGuard guard;
    // Tiny two-task chain measured on a Device -> Accelerator switch: the
    // executor clamps to 1 thread for the device, widens for the
    // accelerator, and must restore the *raw* entering setting afterwards.
    const relperf::workloads::TaskChain chain =
        relperf::workloads::make_rls_chain({4, 4}, 1);
    const relperf::workloads::VariantAssignment assignment("DA");
    const relperf::sim::RealExecutor executor(
        relperf::sim::EmulatedDevice{1, 0.0, 0.0},
        relperf::sim::EmulatedDevice{0, 0.0, 0.0});

    relperf::stats::Rng rng(11);
    linalg::set_gemm_threads(0); // library default
    (void)executor.run_once(chain, assignment, rng);
    EXPECT_EQ(linalg::gemm_thread_setting(), 0)
        << "executor must restore the raw setting, not a resolved width";

    linalg::set_gemm_threads(2);
    (void)executor.run_once(chain, assignment, rng);
    EXPECT_EQ(linalg::gemm_thread_setting(), 2);
}
