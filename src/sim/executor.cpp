#include "sim/executor.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace relperf::sim {

using workloads::Placement;

SimulatedExecutor::SimulatedExecutor(const CostModel& model, NoiseModel noise)
    : model_(model), noise_(noise) {
    noise_.validate();
}

TimeBreakdown SimulatedExecutor::simulate(
    const workloads::TaskChain& chain,
    const workloads::VariantAssignment& variant, stats::Rng* rng) const {
    RELPERF_REQUIRE(chain.size() == variant.size(),
                    "SimulatedExecutor: assignment length must match chain length");

    const auto perturb = [&](double mean) {
        if (rng == nullptr || mean == 0.0) return mean;
        return mean * noise_.sample_factor(*rng);
    };

    TimeBreakdown out;
    Placement prev = Placement::Device; // chains are invoked from the edge
    for (std::size_t i = 0; i < chain.size(); ++i) {
        const Placement p = variant.at(i).placement;
        const TaskTimeParts parts = model_.task_parts(chain, i, p, prev);
        // The backend axis scales compute only: a different kernel
        // implementation changes arithmetic throughput, not data movement.
        const double multiplier =
            model_.backend_multiplier(variant.resolved_backend(i, chain.backend), p);
        const double compute = perturb(parts.compute_s * multiplier);
        const double staging = perturb(parts.staging_s);
        if (p == Placement::Device) {
            out.device_busy_s += compute;
        } else {
            out.accelerator_busy_s += compute;
        }
        out.link_busy_s += staging;
        out.total_s += compute + staging;
        prev = p;
    }
    const double exit_cost = perturb(model_.exit_seconds(chain, prev));
    out.link_busy_s += exit_cost;
    out.total_s += exit_cost;
    return out;
}

TimeBreakdown SimulatedExecutor::run_once(const workloads::TaskChain& chain,
                                          const workloads::VariantAssignment& variant,
                                          stats::Rng& rng) const {
    return simulate(chain, variant, &rng);
}

std::vector<double> SimulatedExecutor::measure(const workloads::TaskChain& chain,
                                               const workloads::VariantAssignment& variant,
                                               std::size_t n, stats::Rng& rng) const {
    RELPERF_REQUIRE(n > 0, "SimulatedExecutor: need at least one measurement");
    obs::Span span("sim.measure", "executor");
    if (span.armed()) {
        // alg_name() allocates; build it only when the span records.
        span.arg("alg", variant.alg_name());
    }
    span.arg("n", static_cast<std::uint64_t>(n));
    obs::metrics().executions_total.inc(n);
    std::vector<double> samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        samples.push_back(run_once(chain, variant, rng).total_s);
    }
    return samples;
}

double SimulatedExecutor::expected_seconds(
    const workloads::TaskChain& chain,
    const workloads::VariantAssignment& variant) const {
    return simulate(chain, variant, nullptr).total_s;
}

TimeBreakdown SimulatedExecutor::expected_breakdown(
    const workloads::TaskChain& chain,
    const workloads::VariantAssignment& variant) const {
    return simulate(chain, variant, nullptr);
}

} // namespace relperf::sim
