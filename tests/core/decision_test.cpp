#include "core/decision.hpp"

#include "core/pipeline.hpp"
#include "sim/profile.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

namespace core = relperf::core;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;
using relperf::stats::Rng;

namespace {

struct Fixture {
    workloads::TaskChain chain = workloads::paper_rls_chain(10);
    sim::CalibratedProfile profile = sim::paper_rls_profile();
    sim::SimulatedExecutor executor{profile, sim::NoiseModel{}};
    std::vector<workloads::VariantAssignment> assignments =
        workloads::enumerate_assignments(3);
    core::AnalysisResult analysis = [this] {
        core::AnalysisConfig config;
        config.measurements_per_alg = 30;
        config.clustering.repetitions = 60;
        return core::analyze_chain(executor, chain, assignments, config);
    }();
    std::vector<core::CandidateProfile> candidates = core::build_candidate_profiles(
        analysis.measurements, analysis.clustering, executor, chain, assignments);
};

} // namespace

TEST(BuildCandidateProfiles, FieldsAreConsistent) {
    Fixture f;
    ASSERT_EQ(f.candidates.size(), 8u);
    for (std::size_t i = 0; i < f.candidates.size(); ++i) {
        const core::CandidateProfile& c = f.candidates[i];
        EXPECT_EQ(c.alg, i);
        EXPECT_EQ(c.name, f.analysis.measurements.name(i));
        EXPECT_GE(c.final_rank, 1);
        EXPECT_GT(c.mean_seconds, 0.0);
        EXPECT_GE(c.accelerator_seconds, 0.0);
        // FLOPs partition the chain total.
        EXPECT_NEAR(c.device_flops + c.accelerator_flops,
                    workloads::flop_split(f.chain, f.assignments[0]).total(), 1.0);
    }
    // algDDD does everything on the device.
    const auto& ddd = f.candidates[0];
    EXPECT_DOUBLE_EQ(ddd.accelerator_flops, 0.0);
    EXPECT_DOUBLE_EQ(ddd.accelerator_seconds, 0.0);
}

TEST(SelectCostAware, ZeroWeightPicksFastestInBestCluster) {
    Fixture f;
    const core::CostAwareConfig config{0.0, 1};
    const core::CandidateProfile chosen = core::select_cost_aware(f.candidates, config);
    EXPECT_EQ(chosen.final_rank, 1);
    // DDA is the calibrated winner.
    EXPECT_EQ(chosen.name, "algDDA");
}

TEST(SelectCostAware, HugeAcceleratorCostPrefersDeviceOnly) {
    Fixture f;
    // Rank tolerance 2 admits algDDD; an enormous accelerator cost makes any
    // offloading unattractive.
    const core::CostAwareConfig config{1e9, 2};
    const core::CandidateProfile chosen = core::select_cost_aware(f.candidates, config);
    EXPECT_EQ(chosen.name, "algDDD");
}

TEST(SelectCostAware, RankToleranceGatesCandidates) {
    Fixture f;
    core::CostAwareConfig config{0.0, 1};
    const auto best = core::select_cost_aware(f.candidates, config);
    EXPECT_EQ(best.final_rank, 1);

    // Tolerance spanning every cluster can only improve the utility.
    config.rank_tolerance = 8;
    const auto widened = core::select_cost_aware(f.candidates, config);
    EXPECT_LE(widened.mean_seconds, best.mean_seconds + 1e-12);
}

TEST(SelectCostAware, InvalidInputsThrow) {
    Fixture f;
    EXPECT_THROW((void)core::select_cost_aware({}, core::CostAwareConfig{0.0, 1}),
                 relperf::InvalidArgument);
    EXPECT_THROW(
        (void)core::select_cost_aware(f.candidates, core::CostAwareConfig{-1.0, 1}),
        relperf::InvalidArgument);
    EXPECT_THROW(
        (void)core::select_cost_aware(f.candidates, core::CostAwareConfig{0.0, 0}),
        relperf::InvalidArgument);
}

TEST(SelectMinDeviceFlops, PicksTheHeaviestOffloaderAmongTopClusters) {
    Fixture f;
    // Within the top two clusters {DDA, DAA, DDD}-ish, algDAA offloads
    // L2+L3 and therefore executes the fewest FLOPs on the device (the
    // paper's Sec. IV energy example chooses exactly algDAA).
    const core::CandidateProfile chosen =
        core::select_min_device_flops(f.candidates, 2);
    EXPECT_EQ(chosen.name, "algDAA");
}

TEST(SelectMinDeviceFlops, WideToleranceFindsGlobalMinimum) {
    Fixture f;
    const core::CandidateProfile chosen =
        core::select_min_device_flops(f.candidates, 8);
    EXPECT_EQ(chosen.name, "algAAA"); // everything offloaded
    EXPECT_DOUBLE_EQ(chosen.device_flops, 0.0);
}

TEST(EnergyBudgetSwitcher, GenerousBudgetNeverSwitches) {
    Fixture f;
    const sim::EnergyModel energy(sim::paper_cpu_gpu_platform());
    const core::EnergyBudgetSwitcher switcher(f.executor, energy, f.chain);
    Rng rng(1);
    core::SwitchPolicyConfig config;
    config.device_energy_budget_j = 1e12;
    config.window_runs = 10;
    config.cooldown_runs = 5;
    const core::SwitchTrace trace =
        switcher.simulate(workloads::VariantAssignment("DDD"),
                          workloads::VariantAssignment("DAA"), 100, config, rng);
    EXPECT_EQ(trace.switches, 0u);
    ASSERT_EQ(trace.segments.size(), 1u);
    EXPECT_EQ(trace.segments[0].alg_name, "algDDD");
    EXPECT_EQ(trace.segments[0].runs, 100u);
}

TEST(EnergyBudgetSwitcher, TightBudgetTriggersSwitching) {
    Fixture f;
    const sim::EnergyModel energy(sim::paper_cpu_gpu_platform());
    const core::EnergyBudgetSwitcher switcher(f.executor, energy, f.chain);
    Rng rng(2);
    core::SwitchPolicyConfig config;
    config.device_energy_budget_j = 1e-6; // exceeded immediately
    config.window_runs = 10;
    config.cooldown_runs = 4;
    const core::SwitchTrace trace =
        switcher.simulate(workloads::VariantAssignment("DDD"),
                          workloads::VariantAssignment("DAA"), 60, config, rng);
    EXPECT_GT(trace.switches, 0u);
    // Alternate segments actually executed.
    bool saw_alternate = false;
    for (const auto& seg : trace.segments) {
        if (seg.alg_name == "algDAA") saw_alternate = true;
    }
    EXPECT_TRUE(saw_alternate);
    // Switching to the offloader reduces device energy vs the baseline.
    EXPECT_LT(trace.total_device_energy_j, trace.baseline_device_energy_j);
}

TEST(EnergyBudgetSwitcher, SegmentsAccountForEveryRun) {
    Fixture f;
    const sim::EnergyModel energy(sim::paper_cpu_gpu_platform());
    const core::EnergyBudgetSwitcher switcher(f.executor, energy, f.chain);
    Rng rng(3);
    core::SwitchPolicyConfig config;
    config.device_energy_budget_j = 0.5;
    config.window_runs = 8;
    config.cooldown_runs = 3;
    const core::SwitchTrace trace =
        switcher.simulate(workloads::VariantAssignment("DDD"),
                          workloads::VariantAssignment("DAA"), 75, config, rng);
    std::size_t runs = 0;
    double seconds = 0.0;
    for (const auto& seg : trace.segments) {
        runs += seg.runs;
        seconds += seg.seconds;
    }
    EXPECT_EQ(runs, 75u);
    EXPECT_NEAR(seconds, trace.total_seconds, 1e-9);
}

TEST(EnergyBudgetSwitcher, InvalidConfigThrows) {
    Fixture f;
    const sim::EnergyModel energy(sim::paper_cpu_gpu_platform());
    const core::EnergyBudgetSwitcher switcher(f.executor, energy, f.chain);
    Rng rng(4);
    core::SwitchPolicyConfig config;
    config.device_energy_budget_j = 0.0;
    EXPECT_THROW((void)switcher.simulate(workloads::VariantAssignment("DDD"),
                                         workloads::VariantAssignment("DAA"), 10,
                                         config, rng),
                 relperf::InvalidArgument);
    config = {};
    EXPECT_THROW((void)switcher.simulate(workloads::VariantAssignment("DDD"),
                                         workloads::VariantAssignment("DAA"), 0,
                                         config, rng),
                 relperf::InvalidArgument);
}
