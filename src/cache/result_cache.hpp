#pragma once
//! \file result_cache.hpp
//! Persistent, on-disk, content-addressed result cache keyed by the campaign
//! plan hash — the measurement-avoidance layer a repeat query is served
//! from instead of being re-measured.
//!
//! Layout: one entry per measured plan under the cache directory, in three
//! files,
//!
//!     <dir>/<plan_hash:016x>.csv    the merged measurements in shard-file
//!                                   format (shard 0/1, spec_hash = plan
//!                                   hash) — campaign::write_shard_csv and
//!                                   its strict manifest validation are the
//!                                   integrity layer
//!     <dir>/<plan_hash:016x>.tally  the entry's clustering as its integer
//!                                   rank tally (core::rank_tally): the
//!                                   analysis key, a digest of the
//!                                   measurements, one row per algorithm
//!                                   and a checksum over the file body
//!     <dir>/<plan_hash:016x>.meta   the index sidecar: plan hash, prefix
//!                                   hash, budget (measurements / the
//!                                   adaptive cap) and a logical last-use
//!                                   counter for deterministic LRU eviction
//!
//! Lookups come in two tiers. An **exact hit** finds the entry whose name is
//! the query's plan hash, re-validates it through campaign::merge_shards
//! (spec hash, per-algorithm counts, adaptive reachability — the same checks
//! a shard merge runs) and returns the merged measurements with zero
//! executor draws. When its tally validates, the hit also returns the
//! clustering, rebuilt by core::build_clustering with no comparator call. A
//! **prefix extension** finds an entry of the *same plan with a smaller
//! budget* (equal CampaignSpec::prefix_hash, smaller `budget`): because
//! every algorithm draws a prefix-extensible per-assignment stream, the
//! cached samples are a byte-exact prefix of the larger run's, so the
//! caller measures only the remainder (see cached_campaign.hpp).
//!
//! The tally is keyed by the analysis, not the plan: a fixed-N plan hash
//! leaves out Rep, the clustering seed, R, tie_epsilon and
//! decision_threshold, so one entry serves queries that cluster under other
//! knobs. The tally records them, with core::kAnalysisVersion, as its
//! analysis key, and binds itself to its payload by an FNV-1a digest of the
//! measurements (names and sample bit patterns). It is served only when the
//! key, the digest, the checksum and every row match; otherwise the lookup
//! warns, the exact tier re-clusters, and store() repairs the tally. An
//! entry written before tallies existed re-clusters once and then gains one.
//!
//! Robustness: publishes write to a temp file and rename into place, so a
//! concurrent writer or a crash can never leave a half-written entry under
//! the final name; corrupt, truncated or tampered entries fail manifest
//! validation and degrade to a miss (the caller re-measures and the store
//! repairs the entry). A read-only directory degrades the same way —
//! the cache never turns a serviceable campaign into an error. A store
//! removes the old tally before it publishes the new payload, and the
//! digest catches a racing writer that pairs a new payload with an older
//! tally.

#include "campaign/spec.hpp"
#include "campaign/shard_io.hpp"
#include "core/clustering.hpp"
#include "core/measurement.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace relperf::cache {

/// Where the cache lives and how big it may grow. An empty `dir` disables
/// caching (every consult is a pass-through).
struct CacheConfig {
    std::string dir;             ///< Cache directory (created on first store).
    std::size_t max_entries = 0; ///< Entry-count cap; 0 = unlimited.
    std::size_t max_bytes = 0;   ///< Byte cap over all three files; 0 = unlimited.

    [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

/// Outcome tier of a lookup.
enum class HitKind {
    Miss,   ///< No usable entry — measure from scratch (and store).
    Exact,  ///< Same plan hash — zero executor draws.
    Prefix, ///< Same plan, smaller budget — measure only the delta.
};

[[nodiscard]] const char* to_string(HitKind kind) noexcept;

/// A validated lookup result. For Exact and Prefix hits `merged` holds the
/// entry's measurements re-validated and re-stitched into global enumeration
/// order by campaign::merge_shards, and `manifest` the entry's provenance
/// (adaptive plan, stop-set history, per-algorithm counts).
struct CacheLookup {
    HitKind kind = HitKind::Miss;
    core::MeasurementSet merged;
    campaign::ShardManifest manifest;
    /// Set on an Exact hit whose stored tally validates: the clustering of
    /// `merged` under the query's analysis knobs.
    std::optional<core::Clustering> clustering;
};

/// On-disk state of the cache (the `--cache-stats` numbers).
struct CacheStats {
    std::size_t entries = 0; ///< Complete entries (payload + sidecar).
    std::size_t bytes = 0;   ///< Total payload, tally and sidecar bytes.
};

/// The cache proper. Thread-compatible (one instance per thread or external
/// locking); concurrent *processes* are safe by the atomic-rename publish
/// discipline — racing writers of the same plan produce identical content,
/// and the last rename wins.
class ResultCache {
public:
    explicit ResultCache(CacheConfig config);

    [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }

    /// Consults the cache for `spec`'s plan. Emits a `cache.lookup` span
    /// (on an exact hit its `tally` arg is served, absent, stale or invalid)
    /// and maintains the relperf_cache_{hits,misses,extensions}_total
    /// counters. Any I/O or validation failure on a candidate entry warns on
    /// stderr and degrades toward Miss, and an unusable tally warns and
    /// leaves `clustering` unset — never throws for a bad entry.
    [[nodiscard]] CacheLookup lookup(const campaign::CampaignSpec& spec);

    /// Publishes the merged result of a full run of `spec` as the entry for
    /// its plan hash (overwriting any stale or corrupt predecessor), then
    /// applies the LRU eviction pass. The old tally goes first; a non-null
    /// `clustering` (of `merged` under `spec`'s analysis knobs) is written
    /// as the new tally after the payload and before the sidecar. Failures
    /// (e.g. a read-only directory) warn on stderr and leave the cache
    /// unchanged — the campaign result is already in hand, so a store can
    /// never fail the run.
    void store(const campaign::CampaignSpec& spec,
               const core::MeasurementSet& merged,
               const std::vector<std::size_t>& stopset_rounds = {},
               const core::Clustering* clustering = nullptr);

    /// Scans the directory (sorted) and reports entry count and bytes.
    [[nodiscard]] CacheStats stats() const;

private:
    /// One parsed `.meta` sidecar.
    struct MetaEntry {
        std::uint64_t plan_hash = 0;
        std::uint64_t prefix_hash = 0;
        std::size_t budget = 0;
        std::uint64_t last_use = 0;
    };

    [[nodiscard]] std::string payload_path(std::uint64_t plan_hash) const;
    [[nodiscard]] std::string tally_path(std::uint64_t plan_hash) const;
    [[nodiscard]] std::string meta_path(std::uint64_t plan_hash) const;
    /// All parseable sidecars, sorted by file name (deterministic order).
    [[nodiscard]] std::vector<MetaEntry> scan_metas() const;
    /// Bumps an entry's logical last-use above every other entry's.
    void touch(const MetaEntry& meta);
    void write_meta(const MetaEntry& meta);
    /// Deterministic LRU: evict by (last_use, plan_hash) until within caps.
    void evict();
    /// Validates the payload of `plan_hash` against `spec` via merge_shards;
    /// fills `out` on success. Returns false (after warning) on any failure.
    bool load_entry(const campaign::CampaignSpec& spec,
                    std::uint64_t plan_hash, CacheLookup& out) const;
    /// Fills `out.clustering` from the tally of `plan_hash` when it matches
    /// `spec`'s analysis key and `out.merged`; warns otherwise. Returns the
    /// tally's state for the span: served, absent, stale or invalid.
    const char* load_tally(const campaign::CampaignSpec& spec,
                           std::uint64_t plan_hash, CacheLookup& out) const;

    CacheConfig config_;
};

} // namespace relperf::cache
