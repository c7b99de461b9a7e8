#pragma once
//! \file measurement_engine.hpp
//! Incremental, early-stopping measurement — the adaptive replacement for
//! the fixed-N batch loop.
//!
//! The paper measures every algorithm a fixed N times and only then runs the
//! bootstrap comparison, but the relative-score clustering itself reveals,
//! round by round, which algorithms' performance-class membership has already
//! stabilized. The MeasurementEngine exploits that: it measures `min_n`
//! samples of every algorithm, clusters, and then keeps extending only the
//! algorithms whose final cluster membership changed recently — an algorithm
//! whose membership has been identical for `stability_rounds` consecutive
//! clusterings stops being measured. One StoppingRule makes that decision
//! (see stopping_rule.hpp): with `confidence == 0` it is exactly that
//! stability rule, and with a confidence level it instead stops once the
//! class repeated and the class-vs-runner-up score margin is significant at
//! that level.
//! On edge devices, where measurement cost dominates, this cuts the
//! campaign's total measurements well below `count * max_n` while preserving
//! the membership the fixed-N run finds.
//!
//! Determinism contract: every algorithm draws from its own persistent RNG
//! stream (SampleSource keeps the stream open across rounds), so an
//! algorithm's sample is a deterministic *prefix-extensible* sequence — the
//! adaptive run's samples are literally a prefix of the fixed-N run's, and
//! early-stopping one algorithm cannot perturb another's values. With
//! `max_n == min_n` (adaptive off) the engine performs exactly one round and
//! reproduces the batch path (measure_all, then one clustering) bit for bit;
//! core::analyze_source runs every fixed-N plan that way.

#include "core/bootstrap_comparator.hpp"
#include "core/clustering.hpp"
#include "core/measurement.hpp"
#include "sim/executor.hpp"
#include "sim/real_executor.hpp"
#include "workloads/chain.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace relperf::core {

/// Knobs of the adaptive rounds.
struct AdaptiveConfig {
    std::size_t min_n = 10; ///< Samples every algorithm gets before any stop.
    std::size_t max_n = 30; ///< Hard cap — the fixed-N budget per algorithm.
    std::size_t batch = 5;  ///< Samples added per algorithm per round.
    /// Stability rule: consecutive clusterings with unchanged final
    /// membership after which an algorithm stops being measured. The
    /// confidence rule ignores it.
    std::size_t stability_rounds = 2;
    /// 0 selects the stability rule; a level in (0.5, 1) selects the
    /// confidence rule, the one-sided coverage of its margin CI (see
    /// stopping_rule.hpp).
    double confidence = 0.0;

    /// Throws InvalidArgument on out-of-range fields.
    void validate() const;
};

/// Where the engine's samples come from. Implementations own one persistent
/// RNG stream per algorithm: consecutive draw() calls for the same index
/// continue the same deterministic sequence (the prefix-extension property
/// the engine's bit-identity guarantee rests on).
class SampleSource {
public:
    virtual ~SampleSource() = default;

    [[nodiscard]] virtual std::size_t count() const = 0;
    [[nodiscard]] virtual std::string name(std::size_t index) const = 0;

    /// The next `n` samples of algorithm `index` from its stream.
    [[nodiscard]] virtual std::vector<double> draw(std::size_t index,
                                                   std::size_t n) = 0;

    /// Advances algorithm `index`'s stream past its next `n` samples without
    /// keeping the values — the cache's prefix-extension fast-forward. The
    /// default draws and discards, which is correct for any source but pays
    /// the full measurement cost (and counts the draws like measurements);
    /// the executor-backed sources override it with a cheap replay that
    /// measures nothing and counts nothing, leaving the stream bit-identical
    /// to a real draw.
    virtual void skip(std::size_t index, std::size_t n) {
        if (n > 0) (void)draw(index, n);
    }
};

/// Shared plumbing of the executor-backed sources: the variant list, the
/// algorithm names and one persistent stream per algorithm. The stream rule
/// lives here and nowhere else: the variant at position i draws on
/// Rng(seed).child(globals[i]), or on Rng(seed).child(i) when `globals` is
/// empty. Its seed is assignment_stream_seed(seed, globals[i]), so a subset
/// of a plan (a campaign shard) reproduces the matching rows of the whole
/// list bit for bit.
class VariantSampleSource : public SampleSource {
public:
    [[nodiscard]] std::size_t count() const override { return variants_.size(); }
    [[nodiscard]] std::string name(std::size_t index) const override;

protected:
    VariantSampleSource(workloads::TaskChain chain,
                        std::vector<workloads::VariantAssignment> variants,
                        std::uint64_t seed,
                        const std::vector<std::size_t>& globals);

    /// The persistent stream of algorithm `index`.
    [[nodiscard]] stats::Rng& stream(std::size_t index);

    workloads::TaskChain chain_;
    std::vector<workloads::VariantAssignment> variants_;

private:
    std::vector<stats::Rng> streams_;
};

/// Samples from the SimulatedExecutor.
class SimSampleSource final : public VariantSampleSource {
public:
    SimSampleSource(const sim::SimulatedExecutor& executor,
                    workloads::TaskChain chain,
                    std::vector<workloads::VariantAssignment> variants,
                    std::uint64_t seed,
                    const std::vector<std::size_t>& globals = {});

    [[nodiscard]] std::vector<double> draw(std::size_t index,
                                           std::size_t n) override;
    void skip(std::size_t index, std::size_t n) override;

private:
    const sim::SimulatedExecutor& executor_;
};

/// Samples wall-clock measurements from the RealExecutor. Warmup runs
/// precede *every* draw: between two adaptive rounds other algorithms ran
/// and evicted caches/codepaths, so extension samples need re-heating just
/// like first samples do. Warmups execute on a hoisted stream, so the
/// measured values consume the same stream prefix for every warmup count.
class RealSampleSource final : public VariantSampleSource {
public:
    RealSampleSource(const sim::RealExecutor& executor,
                     workloads::TaskChain chain,
                     std::vector<workloads::VariantAssignment> variants,
                     std::uint64_t seed,
                     const std::vector<std::size_t>& globals = {},
                     std::size_t warmup = 1);

    [[nodiscard]] std::vector<double> draw(std::size_t index,
                                           std::size_t n) override;
    void skip(std::size_t index, std::size_t n) override;

private:
    const sim::RealExecutor& executor_;
    std::size_t warmup_;
};

/// The single generic fixed-N measurement loop: n samples of every
/// algorithm, in source order. measure_variants(_real), fixed-N campaign
/// shards and the engine's first round all go through it.
[[nodiscard]] MeasurementSet measure_all(SampleSource& source, std::size_t n);

/// Outcome of one engine run.
struct EngineResult {
    MeasurementSet measurements;
    /// Clustering of the final measurements (identical to what
    /// analyze_measurements would produce on them): the last round's
    /// clustering, since every round clusters its measurements afresh.
    Clustering clustering;
    /// Per-algorithm sample counts, in source order.
    std::vector<std::size_t> samples_per_alg;
    std::size_t rounds = 0;         ///< Measurement rounds performed.
    std::size_t total_samples = 0;  ///< Sum of samples_per_alg.
    std::size_t fixed_n_samples = 0; ///< count * max_n — the fixed-N cost.
};

/// Per-round progress snapshot handed to a RoundObserver after the round's
/// stop decisions and before the next extension draw.
struct EngineRound {
    std::size_t round = 0;         ///< 1-based round number.
    std::size_t newly_stopped = 0; ///< Algorithms frozen by this round.
    std::size_t stopped_total = 0; ///< Cumulative frozen count.
    std::size_t active = 0;        ///< Algorithms still extending.
};

/// Between-round callback — how the campaign coordinator broadcasts the
/// global stop-set (spans, counters, per-round manifests) without owning the
/// engine loop. Fires once per round, including the final one.
using RoundObserver = std::function<void(const EngineRound&)>;

/// "measured X of Y fixed-N samples, saved Z (P%)" — the human-readable
/// savings line the CLI and the benches print (and the smoke tests grep);
/// one formatter so the wording cannot drift between surfaces.
[[nodiscard]] std::string render_savings(std::size_t total_samples,
                                         std::size_t fixed_n_samples);

/// Runs measurement in adaptive rounds (see file comment). The comparator
/// and clusterer configs are the ones the final analysis uses, so the
/// stopping rule watches exactly the statistic the campaign reports.
class MeasurementEngine {
public:
    MeasurementEngine(AdaptiveConfig adaptive,
                      BootstrapComparatorConfig comparator = {},
                      ClustererConfig clustering = {});

    [[nodiscard]] EngineResult run(SampleSource& source,
                                   const RoundObserver& on_round = {}) const;

    [[nodiscard]] const AdaptiveConfig& config() const noexcept {
        return adaptive_;
    }

private:
    AdaptiveConfig adaptive_;
    BootstrapComparatorConfig comparator_;
    ClustererConfig clustering_;
};

} // namespace relperf::core
