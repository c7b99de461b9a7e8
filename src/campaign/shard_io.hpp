#pragma once
//! \file shard_io.hpp
//! Persistence of one shard's output: the standard measurements CSV
//! (`algorithm,measurement_index,seconds`, readable by core::io and by
//! relperf_cli --input) prefixed with a manifest in `#` comment lines — spec
//! hash, shard index/count, producing host and the producing spec's own
//! entries — so a merge on the collecting machine can verify every file
//! belongs to the same measurement plan, and name the key when it does not.
//!
//! Example file (an adaptive plan adds its keys and samples_per_algorithm):
//!
//!     # relperf-shard v1
//!     # spec_hash = 9e1b7c2a44f00d1c
//!     # shard_index = 0
//!     # shard_count = 4
//!     # host = rpi-kitchen
//!     # provenance = host=rpi-kitchen;build=Release;...
//!     # campaign = edge-sweep
//!     # sizes = 50,75,300
//!     # ...                  (every other entry of the spec, in file order)
//!     # decision_threshold = 0.9
//!     algorithm,measurement_index,seconds
//!     algDDD,0,0.0406...

#include "campaign/spec.hpp"
#include "core/measurement.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace relperf::campaign {

/// Provenance header of a shard file.
struct ShardManifest {
    std::uint64_t spec_hash = 0;  ///< CampaignSpec::hash() of the plan.
    std::size_t shard_index = 0;  ///< i in [0, K).
    std::size_t shard_count = 1;  ///< K.
    std::string host;             ///< Producing host name (informational).
    /// The producing spec's entries(), one `# key = value` line each. Older
    /// files carry a subset (label, backend, optional axes); merge_shards
    /// reads a missing optional key as the default they were measured under.
    std::vector<SpecEntry> plan;
    /// Cumulative global stop-set size after each coordinator round
    /// (`# stopset_rounds = 0,5,8`). Written only for coordinated plans;
    /// informational for a merge.
    std::vector<std::size_t> stopset_rounds;
    /// Per-algorithm sample counts in CSV order (`# samples_per_algorithm =
    /// 10,15,30`). Always written for an adaptive plan — fixed-N counts are
    /// implied by the plan — and cross-checked against the CSV rows on read,
    /// so a truncated or hand-edited file dies before it reaches a merge.
    std::vector<std::size_t> samples_per_algorithm;
    /// Run provenance record of the producing process (`# provenance =
    /// key=value;key=value`, see obs/provenance.hpp). Informational, like
    /// `host`: a merge never validates it, and files from before the obs
    /// layer carry no line and read back empty.
    std::vector<std::pair<std::string, std::string>> provenance;
};

/// The one manifest builder: `spec`'s hash and entries, the shard's place in
/// the split, this host and the provenance record. Callers add the counts
/// (and a coordinated plan's stop-set history).
[[nodiscard]] ShardManifest shard_manifest(const CampaignSpec& spec,
                                           std::size_t shard_index,
                                           std::size_t shard_count);

/// One shard's manifest plus its measured distributions (the algorithms of
/// the shard's assignment plan, in plan order).
struct ShardResult {
    ShardManifest manifest;
    core::MeasurementSet measurements;
};

/// Best-effort name of this machine ("unknown" when unavailable).
[[nodiscard]] std::string host_name();

/// Writes `shard` to `path` in the format above. Values use round-trip
/// precision (%.17g) so a merge of written shards is bit-identical to an
/// in-memory merge. Throws relperf::Error on I/O failure.
void write_shard_csv(const ShardResult& shard, const std::string& path);

/// Reads a shard file; throws relperf::Error naming the file (and line, for
/// malformed content) on missing/incomplete manifests or bad measurement rows.
/// A manifest key that CampaignSpec::set accepts joins `plan` (a malformed
/// value is a `file:line` error); other unknown keys are ignored.
[[nodiscard]] ShardResult read_shard_csv(const std::string& path);

/// Expands a shard-file pattern into sorted paths: a POSIX glob when the
/// pattern contains metacharacters (`*?[`), otherwise a comma-separated list
/// of literal paths. Throws when nothing matches.
[[nodiscard]] std::vector<std::string> expand_shard_pattern(
    const std::string& pattern);

} // namespace relperf::campaign
