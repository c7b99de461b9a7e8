#include "core/decision.hpp"

#include "stats/descriptive.hpp"
#include "support/error.hpp"

#include <limits>

namespace relperf::core {

std::vector<CandidateProfile> build_candidate_profiles(
    const MeasurementSet& measurements, const Clustering& clustering,
    const sim::SimulatedExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& assignments) {
    RELPERF_REQUIRE(measurements.size() == assignments.size(),
                    "build_candidate_profiles: measurements/assignments mismatch");
    RELPERF_REQUIRE(clustering.final_assignment.size() == assignments.size(),
                    "build_candidate_profiles: clustering/assignments mismatch");

    std::vector<CandidateProfile> out;
    out.reserve(assignments.size());
    for (std::size_t i = 0; i < assignments.size(); ++i) {
        CandidateProfile c;
        c.alg = i;
        c.name = measurements.name(i);
        c.final_rank = clustering.final_assignment[i].rank;
        c.final_score = clustering.final_assignment[i].score;
        c.mean_seconds = stats::mean(measurements.samples(i));
        const sim::TimeBreakdown breakdown =
            executor.expected_breakdown(chain, assignments[i]);
        c.accelerator_seconds = breakdown.accelerator_busy_s;
        const workloads::FlopSplit split = workloads::flop_split(chain, assignments[i]);
        c.device_flops = split.on_device;
        c.accelerator_flops = split.on_accelerator;
        out.push_back(std::move(c));
    }
    return out;
}

CandidateProfile select_cost_aware(const std::vector<CandidateProfile>& candidates,
                                   const CostAwareConfig& config) {
    RELPERF_REQUIRE(!candidates.empty(), "select_cost_aware: no candidates");
    RELPERF_REQUIRE(config.cost_per_accelerator_second >= 0.0,
                    "select_cost_aware: cost weight must be >= 0");
    RELPERF_REQUIRE(config.rank_tolerance >= 1,
                    "select_cost_aware: rank tolerance must be >= 1");

    const CandidateProfile* best = nullptr;
    double best_utility = std::numeric_limits<double>::infinity();
    for (const CandidateProfile& c : candidates) {
        if (c.final_rank > config.rank_tolerance) continue;
        const double utility =
            c.mean_seconds +
            config.cost_per_accelerator_second * c.accelerator_seconds;
        if (utility < best_utility) {
            best_utility = utility;
            best = &c;
        }
    }
    RELPERF_REQUIRE(best != nullptr,
                    "select_cost_aware: no candidate within the rank tolerance");
    return *best;
}

CandidateProfile select_min_device_flops(
    const std::vector<CandidateProfile>& candidates, int rank_tolerance) {
    RELPERF_REQUIRE(!candidates.empty(), "select_min_device_flops: no candidates");
    RELPERF_REQUIRE(rank_tolerance >= 1,
                    "select_min_device_flops: rank tolerance must be >= 1");

    const CandidateProfile* best = nullptr;
    for (const CandidateProfile& c : candidates) {
        if (c.final_rank > rank_tolerance) continue;
        if (best == nullptr || c.device_flops < best->device_flops ||
            (c.device_flops == best->device_flops &&
             c.mean_seconds < best->mean_seconds)) {
            best = &c;
        }
    }
    RELPERF_REQUIRE(best != nullptr,
                    "select_min_device_flops: no candidate within the rank tolerance");
    return *best;
}

EnergyBudgetSwitcher::EnergyBudgetSwitcher(const sim::SimulatedExecutor& executor,
                                           const sim::EnergyModel& energy,
                                           const workloads::TaskChain& chain)
    : executor_(executor), energy_(energy), chain_(chain) {}

SwitchTrace EnergyBudgetSwitcher::simulate(
    const workloads::VariantAssignment& primary,
    const workloads::VariantAssignment& alternate, std::size_t total_runs,
    const SwitchPolicyConfig& config, stats::Rng& rng) const {
    RELPERF_REQUIRE(total_runs > 0, "EnergyBudgetSwitcher: total_runs must be positive");
    RELPERF_REQUIRE(config.window_runs > 0 && config.cooldown_runs > 0,
                    "EnergyBudgetSwitcher: window/cooldown must be positive");
    RELPERF_REQUIRE(config.device_energy_budget_j > 0.0,
                    "EnergyBudgetSwitcher: budget must be positive");

    SwitchTrace trace;
    bool on_alternate = false;
    double window_energy = 0.0;
    std::size_t window_count = 0;
    std::size_t cooldown_left = 0;

    SwitchTrace::Segment segment;
    segment.alg_name = primary.alg_name();

    const auto flush_segment = [&]() {
        if (segment.runs > 0) trace.segments.push_back(segment);
    };

    for (std::size_t run = 0; run < total_runs; ++run) {
        const workloads::VariantAssignment& current =
            on_alternate ? alternate : primary;
        const sim::TimeBreakdown t = executor_.run_once(chain_, current, rng);
        const double device_j = energy_.device_energy(t);

        segment.runs += 1;
        segment.seconds += t.total_s;
        segment.device_energy_j += device_j;
        trace.total_seconds += t.total_s;
        trace.total_device_energy_j += device_j;

        if (on_alternate) {
            if (--cooldown_left == 0) {
                // Cool-down over: back to the primary algorithm.
                flush_segment();
                segment = SwitchTrace::Segment{};
                segment.alg_name = primary.alg_name();
                on_alternate = false;
                window_energy = 0.0;
                window_count = 0;
            }
            continue;
        }

        window_energy += device_j;
        if (++window_count == config.window_runs) {
            window_energy = 0.0;
            window_count = 0;
        } else if (window_energy > config.device_energy_budget_j) {
            // Budget exceeded inside the window: switch to the off-loader.
            flush_segment();
            segment = SwitchTrace::Segment{};
            segment.alg_name = alternate.alg_name();
            on_alternate = true;
            cooldown_left = config.cooldown_runs;
            ++trace.switches;
        }
    }
    flush_segment();

    // Baseline: the same number of runs on the primary only.
    stats::Rng baseline_rng = rng.child(0x5EED);
    for (std::size_t run = 0; run < total_runs; ++run) {
        const sim::TimeBreakdown t = executor_.run_once(chain_, primary, baseline_rng);
        trace.baseline_seconds += t.total_s;
        trace.baseline_device_energy_j += energy_.device_energy(t);
    }
    return trace;
}

} // namespace relperf::core
