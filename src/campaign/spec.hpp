#pragma once
//! \file spec.hpp
//! CampaignSpec — the serializable description of a measurement campaign:
//! which chain to measure (RLS task sizes + loop iterations), on which
//! executor (simulated platform preset or the real machine), how many
//! measurements per algorithm, and the analysis knobs. One spec file is
//! shipped to every shard runner; its hash ties shard outputs back to the
//! plan so a merge can reject results produced under a different plan.
//! The spec is the one record of a plan: entries() writes it and set() reads
//! it, key by key, for spec files and shard manifests alike.

#include "core/pipeline.hpp"
#include "sim/spec.hpp"
#include "workloads/chain.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace relperf::campaign {

/// One `key = value` line of a spec file, value in its file format.
using SpecEntry = std::pair<std::string, std::string>;

/// Which measurement apparatus a campaign uses.
enum class ExecutorKind {
    Sim,  ///< SimulatedExecutor over an AnalyticCostModel platform preset.
    Real, ///< RealExecutor (wall-clock on the machine running the shard).
};

[[nodiscard]] const char* to_string(ExecutorKind kind) noexcept;
[[nodiscard]] ExecutorKind executor_kind_from_string(const std::string& text);

/// The full, serializable campaign plan. All fields have workable defaults;
/// validate() enforces ranges.
struct CampaignSpec {
    std::string name = "campaign"; ///< Label, recorded in shard manifests.

    // Workload: the generic RLS chain (paper Procedure 5 shape).
    std::vector<std::size_t> sizes = {50, 75, 300}; ///< Task sizes.
    std::size_t iters = 10;                         ///< Loop iterations/task.

    // Measurement plan.
    ExecutorKind executor = ExecutorKind::Sim;
    std::string platform = "paper-cpu-gpu"; ///< Sim preset (see platform_preset).
    std::size_t measurements = 30;          ///< Paper's N, per algorithm.
    std::uint64_t measurement_seed = 0xFEEDULL;
    /// Chain-default linalg backend ("portable", "blas", "reference"; see
    /// linalg/backend.hpp). Part of the measurement plan — the same math on
    /// a different backend is a different variant — so a non-default backend
    /// enters hash() and cross-backend merges are rejected. Availability is
    /// checked when a shard *runs*, not in validate(): a collecting host
    /// without the backend can still merge.
    std::string backend = "portable";
    /// Per-task backend axis. Empty (the default) measures the plain 2^k
    /// placement algorithms, exactly the pre-variant plan — and contributes
    /// nothing to hash(), so existing specs keep their plan hashes and shard
    /// files. Non-empty backends grow the campaign to the (2·B)^k per-task
    /// placement×backend variants of workloads::enumerate_variants (spec key
    /// `variant_backends = portable,blas`); every variant's backends
    /// override the chain default task by task.
    std::vector<std::string> variant_backends;

    // Adaptive measurement (core/measurement_engine.hpp). adaptive_min = 0
    // (the default) keeps the classic fixed-N plan. A positive adaptive_min
    // measures every algorithm adaptive_min samples first and then extends
    // in adaptive_batch steps up to `measurements`, stopping an algorithm
    // once its performance-class membership was unchanged for
    // adaptive_stability consecutive clusterings. Stopping decisions default
    // to *shard-local* (each shard clusters the algorithms it owns), so a
    // sharded adaptive campaign is deterministic per split but may measure
    // different counts than the unsharded run; the sample *values* are
    // prefix-identical in every case. `adaptive_coordination = coordinated`
    // instead stops on the *merged* clustering: between rounds the
    // coordinator re-clusters all shards' measurements together and
    // broadcasts the global stop-set, so per-algorithm counts are
    // K-invariant and equal the unsharded engine's. `adaptive_confidence`
    // (in (0.5, 1)) swaps the membership-stability stopping rule for the
    // confidence-targeted one (core/stopping_rule.hpp). The adaptive keys
    // enter the spec text and hash() only when adaptive is on — and the two
    // new ones only when themselves set — so fixed-N specs and pre-
    // coordination adaptive specs keep their exact bytes and plan hashes.
    // Because the stopping rule consults the clusterer, the analysis knobs
    // become measurement-determining for adaptive specs and join the hash as
    // well.
    std::size_t adaptive_min = 0;       ///< Min N (0 = adaptive off).
    std::size_t adaptive_batch = 5;     ///< Samples added per round.
    std::size_t adaptive_stability = 2; ///< Stable clusterings before stop.
    /// Cross-shard coordinated stopping (key value "coordinated"; the
    /// default "shard-local" is never emitted).
    bool adaptive_coordinated = false;
    /// Confidence level of the confidence-targeted stopping rule; 0 (the
    /// default, never emitted) keeps the membership-stability rule.
    double adaptive_confidence = 0.0;

    // Real-executor emulation knobs (paper footnote 2), ignored for Sim.
    int device_threads = 1;        ///< OpenMP team of the emulated Device.
    int accelerator_threads = 0;   ///< 0 = all hardware threads.
    double dispatch_delay_us = 200.0; ///< Per-launch delay on the Accelerator.
    double switch_delay_us = 100.0;   ///< Delay when entering the Accelerator.
    std::size_t warmup = 1;           ///< Unrecorded runs per algorithm.

    // Default shard count (K). `relperf_cli --shard i/K` may override K; the
    // measurement plan — and therefore hash() — does not depend on it.
    std::size_t shards = 1;

    // Analysis knobs (paper Rep / R / epsilon / theta).
    std::size_t clustering_repetitions = 100;
    std::uint64_t clustering_seed = 42;
    std::size_t bootstrap_rounds = 100;
    double tie_epsilon = 0.02;
    double decision_threshold = 0.9;

    /// Throws InvalidArgument on out-of-range fields.
    void validate() const;

    /// The spec's entries in file order; the optional axes (variant and
    /// adaptive keys) appear only when set.
    [[nodiscard]] std::vector<SpecEntry> entries() const;

    /// Sets one entry's field from its file-format value: false for an
    /// unknown key, InvalidArgument on a malformed value, no validate().
    bool set(const std::string& key, const std::string& value);

    /// INI-style rendering of entries() (round-trips through parse).
    [[nodiscard]] std::string to_text() const;

    /// Parses to_text() output, one set() per line. Unknown or duplicate
    /// keys, malformed values and junk lines are errors naming `source` and
    /// the 1-based line number. Blank lines, `#` comments, a UTF-8 BOM and
    /// CRLF endings are tolerated.
    [[nodiscard]] static CampaignSpec parse(const std::string& text,
                                            const std::string& source =
                                                "<string>");

    [[nodiscard]] static CampaignSpec load(const std::string& path);
    void save(const std::string& path) const;

    /// FNV-1a hash of the *measurement plan* — the fields that determine
    /// measured values (workload, executor, platform, backend, N, seed,
    /// real-executor knobs). The label, the default shard count and the
    /// analysis knobs are excluded: they cannot change any measurement, so
    /// shards stay mergeable across K choices and analysis re-runs. The
    /// default backend ("portable") contributes nothing, keeping pre-backend
    /// hashes stable. merge_shards enforces equality.
    [[nodiscard]] std::uint64_t hash() const;

    /// hash() of the plan with the measurement budget blanked out: two specs
    /// share a prefix_hash exactly when they are the same plan up to
    /// `measurements` (fixed N / the adaptive cap). Because every algorithm
    /// draws a prefix-extensible per-assignment stream, a run of the
    /// smaller-budget plan is a byte-exact prefix of the larger one — the
    /// property the result cache's prefix-extension lookup keys on.
    [[nodiscard]] std::uint64_t prefix_hash() const;

    /// The chain this campaign measures.
    [[nodiscard]] workloads::TaskChain chain() const;

    /// The campaign's full measured algorithm list: the 2^k plain
    /// (backend-inherit) assignments when variant_backends is empty, else
    /// the (2·B)^k placement×backend variants. Positions in this list are the global
    /// indices the sharder partitions and the merge stitches back.
    [[nodiscard]] std::vector<workloads::VariantAssignment> variants() const;

    /// True when the adaptive engine drives measurement (adaptive_min > 0).
    [[nodiscard]] bool adaptive() const noexcept { return adaptive_min != 0; }

    /// The engine knobs of an adaptive spec: min = adaptive_min,
    /// max = measurements. Throws when adaptive() is false.
    [[nodiscard]] core::AdaptiveConfig adaptive_config() const;

    /// Analysis configuration carrying the spec's knobs (including the
    /// adaptive engine config when adaptive() is on). `workers` sets
    /// core::ClustererConfig::workers; it is a property of the run, not of
    /// the plan, so it moves no bit and stays out of hash().
    [[nodiscard]] core::AnalysisConfig analysis_config(
        std::size_t workers = 1) const;
};

/// Maps a preset name to its sim::Platform. Known names:
/// "paper-cpu-gpu", "rpi-server", "smartphone-gpu", "cpu-only".
/// Throws InvalidArgument on unknown names (message lists the options).
[[nodiscard]] sim::Platform platform_preset(const std::string& name);

/// The accepted platform_preset names.
[[nodiscard]] const std::vector<std::string>& platform_preset_names();

} // namespace relperf::campaign
