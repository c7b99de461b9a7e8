#include "cache/result_cache.hpp"

#include "campaign/merge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <algorithm>
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
        span.arg("outcome", "exact");
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
                        const std::vector<std::size_t>& stopset_rounds) {
    if (!config_.enabled()) return;
    try {
        spec.validate();
        RELPERF_REQUIRE(!merged.empty(), "store: empty measurement set");
        std::error_code ec;
        fs::create_directories(config_.dir, ec);

        const std::uint64_t plan = spec.hash();
        campaign::ShardResult entry;
        campaign::ShardManifest& m = entry.manifest;
        m.spec_hash = plan;
        m.shard_index = 0;
        m.shard_count = 1;
        m.campaign = spec.name;
        m.host = campaign::host_name();
        m.backend = spec.backend;
        m.variant_backends = spec.variant_backends;
        if (spec.adaptive()) {
            m.adaptive_min = spec.adaptive_min;
            m.adaptive_batch = spec.adaptive_batch;
            m.adaptive_stability = spec.adaptive_stability;
            m.adaptive_coordinated = spec.adaptive_coordinated;
            m.adaptive_confidence = spec.adaptive_confidence;
            m.stopset_rounds = stopset_rounds;
            m.samples_per_algorithm.reserve(merged.size());
            for (std::size_t i = 0; i < merged.size(); ++i) {
                m.samples_per_algorithm.push_back(merged.samples(i).size());
            }
        }
        entry.measurements = merged;

        // Publish payload first, sidecar second: a reader that sees the
        // sidecar can rely on the payload already being in place, and an
        // orphan payload (crash between the renames) is still exact-hittable
        // while its sidecar is recreated on the next touch.
        const std::string payload = payload_path(plan);
        const std::string tmp = payload + temp_suffix();
        campaign::write_shard_csv(entry, tmp);
        fs::rename(tmp, payload, ec);
        if (ec) {
            fs::remove(tmp, ec);
            throw Error("cannot publish '" + payload + "'");
        }
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
        const std::uintmax_t payload =
            fs::file_size(payload_path(meta.plan_hash), ec);
        if (!ec) sized.bytes += payload;
        const std::uintmax_t sidecar =
            fs::file_size(meta_path(meta.plan_hash), ec);
        if (!ec) sized.bytes += sidecar;
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
        if (p.extension() == ".meta" || p.extension() == ".csv") {
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
