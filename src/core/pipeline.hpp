#pragma once
//! \file pipeline.hpp
//! End-to-end analysis pipeline: measure every algorithm of a task chain
//! (simulated or real executor), then cluster the resulting distributions
//! into performance classes. This is the library's main entry point — the
//! examples and most benches go through it.
//!
//! analyze_source is the one path that measures a SampleSource and clusters
//! it, through the MeasurementEngine (core/measurement_engine.hpp). A
//! fixed-N plan is the engine's one-round plan (min_n == max_n), which is
//! bit-identical to measure_all followed by analyze_measurements;
//! AnalysisConfig::adaptive switches on the early-stopping rounds.
//! measure_variants / measure_variants_real only measure, for callers that
//! cluster (or compare) the set themselves. Every source they build opens
//! its streams by VariantSampleSource's one rule, from the master seed and
//! each variant's position; a campaign passes global indices instead.

#include "core/bootstrap_comparator.hpp"
#include "core/clustering.hpp"
#include "core/measurement.hpp"
#include "core/measurement_engine.hpp"
#include "sim/executor.hpp"
#include "sim/real_executor.hpp"
#include "workloads/chain.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace relperf::core {

/// Seed of the independent measurement stream used for the assignment at
/// position `index` when the master rng was constructed from `master_seed`:
/// the seed of Rng(master_seed).child(index), the stream a
/// VariantSampleSource opens for that variant. This is the sharding
/// contract: a campaign shard that measures assignment `index` with
/// `stats::Rng(assignment_stream_seed(seed, index))` reproduces the
/// unsharded run bit-for-bit, regardless of which shard runs it or when.
/// It is also the adaptive-measurement contract: each assignment's sample is
/// a deterministic prefix-extensible sequence of its own stream, so early
/// stopping on one algorithm cannot perturb another's values.
[[nodiscard]] std::uint64_t assignment_stream_seed(std::uint64_t master_seed,
                                                   std::size_t index) noexcept;

/// Measures each variant `n` times with the simulated executor. Algorithm
/// names are the variants' alg_name()s, so plain placements keep the paper's
/// convention ("algDDA").
///
/// Each variant is measured on its own independent RNG stream derived from
/// the master rng's *construction seed* and the variant's position in the
/// list (see assignment_stream_seed). Measurements of one variant are thus
/// independent of every other variant — the property the campaign sharder
/// relies on to split the list across shards without changing any value.
[[nodiscard]] MeasurementSet measure_variants(
    const sim::SimulatedExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants, std::size_t n,
    stats::Rng& rng);

/// As measure_variants, via the RealExecutor (wall-clock on this machine).
[[nodiscard]] MeasurementSet measure_variants_real(
    const sim::RealExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants, std::size_t n,
    stats::Rng& rng, std::size_t warmup = 1);

/// Analysis configuration bundling the paper's N and Rep with the comparator
/// knobs.
struct AnalysisConfig {
    std::size_t measurements_per_alg = 30; ///< Paper's N (fixed-N path).
    BootstrapComparatorConfig comparator;  ///< Comparison strategy knobs.
    ClustererConfig clustering;            ///< Rep + seed.
    std::uint64_t measurement_seed = 0xFEEDULL;
    /// When set, analyze_source runs the adaptive rounds under these knobs
    /// (measurements_per_alg is ignored; the engine's min_n/max_n govern).
    /// Unset, it runs the one-round plan min_n = max_n = measurements_per_alg.
    std::optional<AdaptiveConfig> adaptive;
};

/// Result bundle: the raw distributions plus the clustering.
struct AnalysisResult {
    MeasurementSet measurements;
    Clustering clustering;
    /// Per-algorithm sample counts (all equal to N on the fixed path).
    std::vector<std::size_t> samples_per_alg;
    std::size_t total_samples = 0; ///< Sum of samples_per_alg.
    /// What the fixed-N plan would have cost (count * max_n);
    /// total_samples < fixed_n_samples quantifies the adaptive savings.
    /// analyze_measurements cannot know the cap of an externally measured
    /// set and defaults this to total_samples (zero savings); analyze_source
    /// and campaign::run_campaign fill in the true plan cost.
    std::size_t fixed_n_samples = 0;
};

/// Measures `source` and clusters it — the one place a MeasurementEngine
/// runs. The plan is config.adaptive when set, else min_n = max_n =
/// measurements_per_alg: one round and one clustering, bit-identical to
/// measure_all + analyze_measurements. `on_round` fires once per round.
[[nodiscard]] AnalysisResult analyze_source(SampleSource& source,
                                            const AnalysisConfig& config,
                                            const RoundObserver& on_round = {});

/// One-call pipeline over a simulated platform: analyze_source over the
/// variants, variant i drawing on Rng(config.measurement_seed).child(i).
[[nodiscard]] AnalysisResult analyze_chain(
    const sim::SimulatedExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants,
    const AnalysisConfig& config);

/// One-call pipeline over an existing MeasurementSet (any source).
[[nodiscard]] AnalysisResult analyze_measurements(MeasurementSet measurements,
                                                  const AnalysisConfig& config);

/// Bundles a set with a clustering of it that is already in hand (the result
/// cache's stored one) the way analyze_measurements bundles its own.
[[nodiscard]] AnalysisResult analysis_result(MeasurementSet measurements,
                                             Clustering clustering);

} // namespace relperf::core
