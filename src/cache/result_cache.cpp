#include "cache/result_cache.hpp"

#include "campaign/merge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define RELPERF_CACHE_HAVE_POSIX 1
#else
#define RELPERF_CACHE_HAVE_POSIX 0
#endif

namespace fs = std::filesystem;

namespace relperf::cache {

namespace {

std::string hash_name(std::uint64_t hash) {
    return str::format("%016llx", static_cast<unsigned long long>(hash));
}

/// Process-unique temp suffix so concurrent writers never collide on the
/// temp file; the final rename is what decides the published content.
std::string temp_suffix() {
#if RELPERF_CACHE_HAVE_POSIX
    return str::format(".tmp.%lld", static_cast<long long>(getpid()));
#else
    return ".tmp";
#endif
}

void warn(const std::string& message) {
    std::fprintf(stderr, "warning: result cache: %s\n", message.c_str());
}

/// Writes `content` to `path` atomically (temp + rename). Throws on failure.
void atomic_write(const std::string& path, const std::string& content) {
    const std::string tmp = path + temp_suffix();
    {
        std::ofstream out(tmp);
        if (!out) throw Error("cannot open '" + tmp + "'");
        out << content;
        out.close();
        if (!out) throw Error("failed writing '" + tmp + "'");
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        throw Error("cannot publish '" + path + "'");
    }
}

std::string read_whole(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot open '" + path + "'");
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

/// The analysis a stored clustering was computed under: the analysis
/// version plus every spec knob that moves a clustering bit. A tally serves
/// only a query with the same key.
std::string analysis_key(const campaign::CampaignSpec& spec) {
    return str::format(
        "version=%u;clustering_repetitions=%zu;clustering_seed=%llu;"
        "bootstrap_rounds=%zu;tie_epsilon=%.17g;decision_threshold=%.17g",
        static_cast<unsigned>(core::kAnalysisVersion),
        spec.clustering_repetitions,
        static_cast<unsigned long long>(spec.clustering_seed),
        spec.bootstrap_rounds, spec.tie_epsilon, spec.decision_threshold);
}

std::uint64_t fold_word(std::uint64_t h, std::uint64_t word) {
    char bytes[8];
    for (std::size_t k = 0; k < 8; ++k) {
        bytes[k] = static_cast<char>(word >> (8 * k));
    }
    return support::fnv1a(std::string_view(bytes, sizeof bytes), h);
}

/// FNV-1a over every name and the bit pattern of every sample, with the
/// lengths folded in so no two sets share a byte stream.
std::uint64_t measurements_digest(const core::MeasurementSet& set) {
    std::uint64_t h = support::kFnv1aOffset;
    for (std::size_t i = 0; i < set.size(); ++i) {
        h = fold_word(h, set.name(i).size());
        h = support::fnv1a(set.name(i), h);
        h = fold_word(h, set.samples(i).size());
        for (const double v : set.samples(i)) {
            h = fold_word(h, std::bit_cast<std::uint64_t>(v));
        }
    }
    return h;
}

constexpr std::string_view kTallyHeader = "# relperf-tally v1";

/// A `.tally` file: header, analysis key, measurement digest, one
/// `row = rank:count ...` line per algorithm, then a checksum line over all
/// the bytes before it.
std::string tally_text(const std::string& key, std::uint64_t digest,
                       const core::RankTally& tally) {
    std::string body(kTallyHeader);
    body += "\nanalysis = " + key + "\nmeasurements = " + hash_name(digest) +
            '\n';
    for (const auto& row : tally) {
        body += "row =";
        for (const auto& [rank, count] : row) {
            body += str::format(" %d:%zu", rank, count);
        }
        body += '\n';
    }
    return body + "checksum = " + hash_name(support::fnv1a(body)) + '\n';
}

/// Exactly 16 lowercase hex digits, as hash_name writes them.
std::uint64_t parse_hex16(std::string_view text, const char* what) {
    if (text.size() != 16 ||
        text.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
        throw Error(std::string("malformed ") + what);
    }
    return str::parse_u64("0x" + std::string(text), what);
}

struct StoredTally {
    std::string key;
    std::uint64_t digest = 0;
    core::RankTally rows;
};

/// Parses tally_text() output. Any deviation — a checksum mismatch, a
/// missing, repeated or reordered line, a malformed number — throws Error.
StoredTally parse_tally(const std::string& content) {
    if (content.size() < 2 || content.back() != '\n') {
        throw Error("tally is truncated");
    }
    const std::size_t last = content.rfind('\n', content.size() - 2);
    const std::size_t checksum_at = last == std::string::npos ? 0 : last + 1;
    const std::string_view checksum_line(content.data() + checksum_at,
                                         content.size() - 1 - checksum_at);
    constexpr std::string_view kChecksum = "checksum = ";
    if (!str::starts_with(checksum_line, kChecksum)) {
        throw Error("tally has no checksum line");
    }
    const std::string_view body(content.data(), checksum_at);
    if (parse_hex16(checksum_line.substr(kChecksum.size()), "checksum") !=
        support::fnv1a(body)) {
        throw Error("tally checksum mismatch");
    }

    const std::vector<std::string> lines = str::split(body, '\n');
    // split() leaves one empty field after the body's final newline.
    if (lines.size() < 5 || lines[0] != kTallyHeader || !lines.back().empty()) {
        throw Error("tally header or layout is malformed");
    }
    const auto value_of = [](const std::string& line, std::string_view key) {
        const std::string prefix = std::string(key) + " = ";
        if (!str::starts_with(line, prefix)) {
            throw Error("tally line '" + line + "' is not '" +
                        std::string(key) + "'");
        }
        return std::string_view(line).substr(prefix.size());
    };
    StoredTally out;
    out.key = std::string(value_of(lines[1], "analysis"));
    out.digest = parse_hex16(value_of(lines[2], "measurements"),
                             "measurement digest");
    for (std::size_t i = 3; i + 1 < lines.size(); ++i) {
        const std::string_view row = value_of(lines[i], "row");
        auto& parsed = out.rows.emplace_back();
        for (const std::string& pair : str::split(row, ' ')) {
            const std::size_t colon = pair.find(':');
            if (pair.empty() || colon == std::string::npos) {
                throw Error("tally row entry '" + pair + "' is not rank:count");
            }
            const std::size_t rank =
                str::parse_size(pair.substr(0, colon), "tally rank");
            if (rank > static_cast<std::size_t>(INT_MAX)) {
                throw Error("tally rank out of range");
            }
            parsed.emplace_back(
                static_cast<int>(rank),
                str::parse_size(pair.substr(colon + 1), "tally count"));
        }
    }
    return out;
}

} // namespace

const char* to_string(HitKind kind) noexcept {
    switch (kind) {
        case HitKind::Miss: return "miss";
        case HitKind::Exact: return "exact";
        case HitKind::Prefix: return "prefix";
    }
    return "miss";
}

ResultCache::ResultCache(CacheConfig config) : config_(std::move(config)) {}

std::string ResultCache::payload_path(std::uint64_t plan_hash) const {
    return (fs::path(config_.dir) / (hash_name(plan_hash) + ".csv")).string();
}

std::string ResultCache::tally_path(std::uint64_t plan_hash) const {
    return (fs::path(config_.dir) / (hash_name(plan_hash) + ".tally")).string();
}

std::string ResultCache::meta_path(std::uint64_t plan_hash) const {
    return (fs::path(config_.dir) / (hash_name(plan_hash) + ".meta")).string();
}

namespace {

/// Parses one `.meta` sidecar; returns false (no warning — sidecars are
/// advisory) on any malformed content.
bool parse_meta(const std::string& path, std::uint64_t& plan_hash,
                std::uint64_t& prefix_hash, std::size_t& budget,
                std::uint64_t& last_use) {
    std::ifstream in(path);
    if (!in) return false;
    std::string line;
    bool saw_plan = false, saw_prefix = false, saw_budget = false;
    while (std::getline(in, line)) {
        const std::string_view trimmed = str::trim(line);
        if (trimmed.empty() || trimmed.front() == '#') continue;
        const std::size_t eq = trimmed.find('=');
        if (eq == std::string_view::npos) return false;
        const std::string key(str::trim(trimmed.substr(0, eq)));
        const std::string value(str::trim(trimmed.substr(eq + 1)));
        try {
            if (key == "plan_hash") {
                plan_hash = str::parse_u64("0x" + value, key);
                saw_plan = true;
            } else if (key == "prefix_hash") {
                prefix_hash = str::parse_u64("0x" + value, key);
                saw_prefix = true;
            } else if (key == "budget") {
                budget = str::parse_size(value, key);
                saw_budget = true;
            } else if (key == "last_use") {
                last_use = str::parse_u64(value, key);
            }
            // Unknown keys are ignored: forward compatibility.
        } catch (const Error&) {
            return false;
        }
    }
    return saw_plan && saw_prefix && saw_budget;
}

} // namespace

std::vector<ResultCache::MetaEntry> ResultCache::scan_metas() const {
    std::vector<MetaEntry> out;
    std::error_code ec;
    if (!fs::is_directory(config_.dir, ec)) return out;
    // Directory iteration order is filesystem-defined; sort before anything
    // downstream consumes the list so candidate selection, eviction order
    // and stats are deterministic.
    std::vector<std::string> paths;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(config_.dir, ec)) {
        if (entry.path().extension() == ".meta") {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& path : paths) {
        MetaEntry meta;
        if (parse_meta(path, meta.plan_hash, meta.prefix_hash, meta.budget,
                       meta.last_use)) {
            out.push_back(meta);
        }
    }
    return out;
}

void ResultCache::write_meta(const MetaEntry& meta) {
    std::ostringstream out;
    out << "# relperf-cache v1\n";
    out << "plan_hash = " << hash_name(meta.plan_hash) << '\n';
    out << "prefix_hash = " << hash_name(meta.prefix_hash) << '\n';
    out << "budget = " << meta.budget << '\n';
    out << "last_use = " << meta.last_use << '\n';
    atomic_write(meta_path(meta.plan_hash), out.str());
}

void ResultCache::touch(const MetaEntry& meta) {
    // Logical LRU clock: the next counter value is one above the largest
    // recorded anywhere in the directory — no wall clock involved, so
    // eviction order is reproducible run to run.
    try {
        std::uint64_t max_use = 0;
        bool already_newest = true;
        for (const MetaEntry& other : scan_metas()) {
            max_use = std::max(max_use, other.last_use);
            if (other.plan_hash != meta.plan_hash &&
                other.last_use >= meta.last_use) {
                already_newest = false;
            }
        }
        MetaEntry updated = meta;
        updated.last_use = max_use + 1;
        // Skip the rewrite when this entry is already the newest *and* its
        // sidecar exists — touching would only churn the file.
        std::error_code ec;
        if (already_newest && fs::exists(meta_path(meta.plan_hash), ec) &&
            meta.last_use == max_use && max_use != 0) {
            return;
        }
        write_meta(updated);
    } catch (const std::exception& e) {
        warn(std::string("cannot update last-use of entry ") +
             hash_name(meta.plan_hash) + ": " + e.what());
    }
}

bool ResultCache::load_entry(const campaign::CampaignSpec& spec,
                             std::uint64_t plan_hash, CacheLookup& out) const {
    try {
        campaign::ShardResult entry =
            campaign::read_shard_csv(payload_path(plan_hash));
        if (entry.manifest.shard_count != 1 ||
            entry.manifest.shard_index != 0) {
            throw Error("entry is not a single-shard merged result");
        }
        // merge_shards is the integrity layer: spec-hash equality, adaptive
        // plan agreement, per-algorithm count reachability, completeness.
        // A tampered or truncated payload dies here and becomes a miss.
        out.merged = campaign::merge_shards(spec, {entry});
        out.manifest = std::move(entry.manifest);
        return true;
    } catch (const std::exception& e) {
        warn("ignoring entry " + hash_name(plan_hash) + ": " + e.what());
        return false;
    }
}

const char* ResultCache::load_tally(const campaign::CampaignSpec& spec,
                                    std::uint64_t plan_hash,
                                    CacheLookup& out) const {
    const std::string entry = hash_name(plan_hash);
    const std::string path = tally_path(plan_hash);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        warn("entry " + entry + " has no stored clustering; re-clustering");
        return "absent";
    }
    try {
        const StoredTally stored = parse_tally(read_whole(path));
        if (stored.key != analysis_key(spec)) {
            warn("stored clustering of entry " + entry +
                 " was made under other analysis knobs or another analysis "
                 "version; re-clustering");
            return "stale";
        }
        if (stored.digest != measurements_digest(out.merged)) {
            warn("stored clustering of entry " + entry +
                 " belongs to other measurements; re-clustering");
            return "stale";
        }
        if (stored.rows.size() != out.merged.size()) {
            throw Error("tally has the wrong number of rows");
        }
        out.clustering =
            core::build_clustering(stored.rows, spec.clustering_repetitions);
        return "served";
    } catch (const std::exception& e) {
        warn("ignoring stored clustering of entry " + entry + ": " + e.what() +
             "; re-clustering");
        return "invalid";
    }
}

CacheLookup ResultCache::lookup(const campaign::CampaignSpec& spec) {
    RELPERF_REQUIRE(config_.enabled(),
                    "ResultCache::lookup: cache directory not configured");
    spec.validate();
    const std::uint64_t plan = spec.hash();
    obs::Span span("cache.lookup", "cache");
    span.arg("plan_hash", hash_name(plan));

    CacheLookup out;
    // Tier 1: exact entry under this plan hash.
    std::error_code ec;
    if (fs::exists(payload_path(plan), ec) && load_entry(spec, plan, out)) {
        out.kind = HitKind::Exact;
        MetaEntry meta{plan, spec.prefix_hash(), spec.measurements, 0};
        std::uint64_t prefix_ignored = 0;
        (void)parse_meta(meta_path(plan), meta.plan_hash, prefix_ignored,
                         meta.budget, meta.last_use);
        touch(meta);
        obs::metrics().cache_hits_total.inc();
        span.arg("outcome", "exact").arg("tally", load_tally(spec, plan, out));
        return out;
    }

    // Tier 2: same plan, smaller budget — a prefix-extension candidate.
    // Largest usable budget first (most samples reused); plan hash breaks
    // ties deterministically.
    const std::uint64_t prefix = spec.prefix_hash();
    std::vector<MetaEntry> candidates;
    for (const MetaEntry& meta : scan_metas()) {
        if (meta.prefix_hash != prefix) continue;
        if (meta.budget == 0 || meta.budget >= spec.measurements) continue;
        // An adaptive plan cannot shrink its cap below the floor: such an
        // entry would fail candidate-spec validation anyway.
        if (spec.adaptive() && meta.budget < spec.adaptive_min) continue;
        candidates.push_back(meta);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const MetaEntry& a, const MetaEntry& b) {
                  if (a.budget != b.budget) return a.budget > b.budget;
                  return a.plan_hash < b.plan_hash;
              });
    for (const MetaEntry& meta : candidates) {
        campaign::CampaignSpec candidate = spec;
        candidate.measurements = meta.budget;
        if (candidate.hash() != meta.plan_hash) continue; // stale sidecar
        if (!load_entry(candidate, meta.plan_hash, out)) continue;
        out.kind = HitKind::Prefix;
        touch(meta);
        obs::metrics().cache_extensions_total.inc();
        span.arg("outcome", "prefix")
            .arg("cached_budget", static_cast<std::uint64_t>(meta.budget));
        return out;
    }

    obs::metrics().cache_misses_total.inc();
    span.arg("outcome", "miss");
    return out;
}

void ResultCache::store(const campaign::CampaignSpec& spec,
                        const core::MeasurementSet& merged,
                        const std::vector<std::size_t>& stopset_rounds,
                        const core::Clustering* clustering) {
    if (!config_.enabled()) return;
    try {
        spec.validate();
        RELPERF_REQUIRE(!merged.empty(), "store: empty measurement set");
        std::string tally;
        if (clustering != nullptr) {
            RELPERF_REQUIRE(
                clustering->final_assignment.size() == merged.size() &&
                    clustering->repetitions == spec.clustering_repetitions,
                "store: the clustering is not of these measurements under "
                "this spec");
            tally = tally_text(analysis_key(spec), measurements_digest(merged),
                               core::rank_tally(*clustering));
        }
        std::error_code ec;
        fs::create_directories(config_.dir, ec);

        const std::uint64_t plan = spec.hash();
        campaign::ShardResult entry;
        entry.manifest = campaign::shard_manifest(spec, 0, 1);
        entry.manifest.stopset_rounds = stopset_rounds;
        entry.measurements = merged;

        // Old tally out, then payload, tally and sidecar in: no reader pairs
        // the new payload with the old tally (and the measurement digest
        // catches a racing writer's), a reader that sees the sidecar can
        // rely on the payload already being in place, and an orphan payload
        // (crash between the renames) is still exact-hittable while its
        // sidecar is recreated on the next touch.
        fs::remove(tally_path(plan), ec);
        if (ec) throw Error("cannot remove '" + tally_path(plan) + "'");
        const std::string payload = payload_path(plan);
        const std::string tmp = payload + temp_suffix();
        campaign::write_shard_csv(entry, tmp);
        fs::rename(tmp, payload, ec);
        if (ec) {
            fs::remove(tmp, ec);
            throw Error("cannot publish '" + payload + "'");
        }
        if (clustering != nullptr) atomic_write(tally_path(plan), tally);
        std::uint64_t max_use = 0;
        for (const MetaEntry& other : scan_metas()) {
            max_use = std::max(max_use, other.last_use);
        }
        write_meta(MetaEntry{plan, spec.prefix_hash(), spec.measurements,
                             max_use + 1});
        evict();
    } catch (const std::exception& e) {
        // The campaign result is already in hand; a failed store (read-only
        // directory, disk full) must not fail the run.
        warn(std::string("cannot store entry: ") + e.what());
    }
}

void ResultCache::evict() {
    if (config_.max_entries == 0 && config_.max_bytes == 0) return;
    struct Sized {
        MetaEntry meta;
        std::uintmax_t bytes = 0;
    };
    std::vector<Sized> entries;
    std::uintmax_t total_bytes = 0;
    std::error_code ec;
    for (const MetaEntry& meta : scan_metas()) {
        Sized sized{meta, 0};
        for (const std::string& path :
             {payload_path(meta.plan_hash), tally_path(meta.plan_hash),
              meta_path(meta.plan_hash)}) {
            const std::uintmax_t size = fs::file_size(path, ec);
            if (!ec) sized.bytes += size;
        }
        total_bytes += sized.bytes;
        entries.push_back(sized);
    }
    // Oldest first; plan hash breaks last-use ties deterministically.
    std::sort(entries.begin(), entries.end(),
              [](const Sized& a, const Sized& b) {
                  if (a.meta.last_use != b.meta.last_use) {
                      return a.meta.last_use < b.meta.last_use;
                  }
                  return a.meta.plan_hash < b.meta.plan_hash;
              });
    std::size_t count = entries.size();
    std::size_t next = 0;
    while (next < entries.size() &&
           ((config_.max_entries != 0 && count > config_.max_entries) ||
            (config_.max_bytes != 0 && total_bytes > config_.max_bytes))) {
        const Sized& victim = entries[next++];
        fs::remove(payload_path(victim.meta.plan_hash), ec);
        fs::remove(tally_path(victim.meta.plan_hash), ec);
        fs::remove(meta_path(victim.meta.plan_hash), ec);
        --count;
        total_bytes -= std::min<std::uintmax_t>(total_bytes, victim.bytes);
    }
}

CacheStats ResultCache::stats() const {
    CacheStats out;
    std::error_code ec;
    if (!fs::is_directory(config_.dir, ec)) return out;
    std::vector<std::string> paths;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(config_.dir, ec)) {
        paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& path : paths) {
        const fs::path p(path);
        if (p.extension() == ".meta" || p.extension() == ".csv" ||
            p.extension() == ".tally") {
            const std::uintmax_t size = fs::file_size(p, ec);
            if (!ec) out.bytes += static_cast<std::size_t>(size);
        }
        if (p.extension() == ".meta") {
            const fs::path payload = fs::path(p).replace_extension(".csv");
            if (fs::exists(payload, ec)) ++out.entries;
        }
    }
    return out;
}

} // namespace relperf::cache
