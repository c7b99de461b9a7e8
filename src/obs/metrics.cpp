#include "obs/metrics.hpp"

#include "obs/provenance.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <mutex>
#include <string>
#include <variant>

namespace relperf::obs {

namespace {

/// Shortest round-trip decimal rendering (std::to_chars), so the dump never
/// goes through a printf float conversion (and stays lint-clean by
/// construction rather than by precision discipline).
std::string format_double(double v) {
    char buf[64];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label(const std::string& v) {
    std::string out;
    out.reserve(v.size());
    for (const char c : v) {
        if (c == '\\' || c == '"') {
            out.push_back('\\');
            out.push_back(c);
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

void Histogram::observe(double v) noexcept {
    if (!metrics_enabled()) return;
    // First bucket whose bound is >= v; everything above lands in +Inf.
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // CAS loop instead of atomic<double>::fetch_add: identical semantics,
    // no dependence on C++20 atomic-float library support.
    double expected = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(expected, expected + v,
                                       std::memory_order_relaxed)) {
    }
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    RELPERF_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
                    "Histogram: bucket bounds must be ascending");
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::reset() noexcept {
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        buckets_[i].store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

struct Registry::Impl {
    struct Entry {
        std::string help;
        // unique_ptr: handles must stay at fixed addresses across rehashes.
        std::variant<std::unique_ptr<Counter>, std::unique_ptr<Histogram>>
            metric;
    };
    mutable std::mutex mutex;
    std::map<std::string, Entry> entries; // ordered => deterministic dump
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Counter& Registry::counter(const std::string& name, const std::string& help) {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->entries.find(name);
    if (it == impl_->entries.end()) {
        Impl::Entry entry{help, std::unique_ptr<Counter>(new Counter())};
        it = impl_->entries.emplace(name, std::move(entry)).first;
    }
    auto* held = std::get_if<std::unique_ptr<Counter>>(&it->second.metric);
    RELPERF_REQUIRE(held != nullptr && it->second.help == help,
                    "Registry: metric re-registered with a different "
                    "type or help: " + name);
    return **held;
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               std::vector<double> bounds) {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->entries.find(name);
    if (it == impl_->entries.end()) {
        Impl::Entry entry{
            help, std::unique_ptr<Histogram>(new Histogram(std::move(bounds)))};
        it = impl_->entries.emplace(name, std::move(entry)).first;
        return *std::get<std::unique_ptr<Histogram>>(it->second.metric);
    }
    auto* held = std::get_if<std::unique_ptr<Histogram>>(&it->second.metric);
    RELPERF_REQUIRE(held != nullptr && it->second.help == help &&
                        (*held)->bounds() == bounds,
                    "Registry: histogram re-registered with different "
                    "type, help or bounds: " + name);
    return **held;
}

std::string Registry::render_prometheus() const {
    std::string out;

    // The provenance record rides along as the conventional info metric.
    out += "# HELP relperf_build_info Run provenance record (value is "
           "always 1; the labels carry the facts).\n";
    out += "# TYPE relperf_build_info gauge\n";
    out += "relperf_build_info{";
    bool first = true;
    for (const ProvenanceEntry& e : provenance()) {
        if (!first) out += ",";
        first = false;
        out += e.key + "=\"" + escape_label(e.value) + "\"";
    }
    out += "} 1\n";

    const std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const auto& [name, entry] : impl_->entries) {
        out += "# HELP " + name + " " + entry.help + "\n";
        if (const auto* c =
                std::get_if<std::unique_ptr<Counter>>(&entry.metric)) {
            out += "# TYPE " + name + " counter\n";
            out += name + " " + std::to_string((*c)->value()) + "\n";
        } else {
            const Histogram& h =
                *std::get<std::unique_ptr<Histogram>>(entry.metric);
            out += "# TYPE " + name + " histogram\n";
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < h.bounds().size(); ++i) {
                cumulative += h.bucket_count(i);
                out += name + "_bucket{le=\"" + format_double(h.bounds()[i]) +
                       "\"} " + std::to_string(cumulative) + "\n";
            }
            cumulative += h.bucket_count(h.bounds().size());
            out += name + "_bucket{le=\"+Inf\"} " +
                   std::to_string(cumulative) + "\n";
            out += name + "_sum " + format_double(h.sum()) + "\n";
            out += name + "_count " + std::to_string(h.count()) + "\n";
        }
    }
    return out;
}

void Registry::reset_values() {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    for (auto& [name, entry] : impl_->entries) {
        if (auto* c = std::get_if<std::unique_ptr<Counter>>(&entry.metric)) {
            (*c)->reset();
        } else {
            std::get<std::unique_ptr<Histogram>>(entry.metric)->reset();
        }
    }
}

Registry& registry() {
    static Registry instance;
    return instance;
}

const Metrics& metrics() {
    // Function-local static: one registration (and its allocations) per
    // process, on the first call — hot paths reuse the bundled handles.
    static const Metrics handles{
        registry().counter("relperf_samples_total",
                           "Measurement samples actually drawn."),
        registry().counter(
            "relperf_samples_fixed_n_total",
            "Samples the equivalent fixed-N plan would have drawn."),
        registry().counter(
            "relperf_adaptive_rounds",
            "Adaptive engine rounds (one clustering consulted per round)."),
        registry().counter("relperf_clusterings_total",
                           "Relative-performance clusterings computed."),
        registry().counter(
            "relperf_bootstrap_resamples_total",
            "Bootstrap resamples drawn by the comparator: 2 per round of "
            "every comparison, settled rounds included."),
        registry().counter("relperf_executions_total",
                           "Individual task-chain executions (sim + real)."),
        registry().counter("relperf_shards_total",
                           "Campaign shards measured in this process."),
        registry().counter("relperf_shard_merges_total",
                           "merge_shards invocations."),
        registry().counter(
            "relperf_coordination_rounds",
            "Coordinator rounds of coordinated adaptive campaigns (one "
            "merged re-clustering per round)."),
        registry().counter(
            "relperf_stopset_broadcast_total",
            "Global stop-set broadcasts to shards (shard count per "
            "coordination round)."),
        registry().counter("relperf_cache_hits_total",
                           "Result-cache exact hits (plan hash matched)."),
        registry().counter("relperf_cache_misses_total",
                           "Result-cache lookups that found no usable entry."),
        registry().counter(
            "relperf_cache_extensions_total",
            "Result-cache prefix extensions (smaller-budget entry reused)."),
        registry().counter(
            "relperf_cache_extension_samples_saved_total",
            "Samples served from cached entries instead of the executor."),
        registry().histogram(
            "relperf_shard_seconds", "Wall seconds spent measuring a shard.",
            {0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0}),
    };
    return handles;
}

} // namespace relperf::obs
