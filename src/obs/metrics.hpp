#pragma once
//! \file metrics.hpp
//! Process-wide metrics registry: counters and fixed-bucket histograms with
//! a Prometheus-text-format dump (plus the relperf_build_info info metric).
//!
//! Hot-path contract: increments are a relaxed atomic check plus a relaxed
//! fetch_add — no locks, no allocation. Registration (name -> handle) is
//! mutex-protected and happens once per site; instrumented code holds the
//! returned reference (handles are stable for the process lifetime, the
//! registry never removes metrics). The well-known relperf_* handles are
//! bundled in Metrics and fetched via metrics().

#include "obs/clock.hpp"
#include "obs/obs.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace relperf::obs {

/// Monotonic counter.
class Counter {
public:
    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

    void inc(std::uint64_t delta = 1) noexcept {
        if (!metrics_enabled()) return;
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    friend class Registry;
    Counter() = default;
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

    std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket histogram (cumulative buckets in the Prometheus dump).
/// Bucket bounds are set at registration and immutable afterwards.
class Histogram {
public:
    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    void observe(double v) noexcept;

    [[nodiscard]] const std::vector<double>& bounds() const noexcept {
        return bounds_;
    }
    /// Non-cumulative count of observations <= bounds()[i] (the last extra
    /// slot is the +Inf overflow bucket).
    [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
        return buckets_[i].load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const noexcept {
        return sum_.load(std::memory_order_relaxed);
    }

private:
    friend class Registry;
    explicit Histogram(std::vector<double> bounds);
    void reset() noexcept;

    std::vector<double> bounds_; // strictly ascending, finite
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_; // bounds_+1 slots
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/// Name -> metric map with a deterministic (name-sorted) Prometheus dump.
/// register_* returns the existing handle when the name is already taken
/// (help/bounds must match — a mismatch is a programming error and throws).
class Registry {
public:
    Counter& counter(const std::string& name, const std::string& help);
    Histogram& histogram(const std::string& name, const std::string& help,
                         std::vector<double> bounds);

    /// Prometheus text exposition format, metrics sorted by name, plus a
    /// relperf_build_info{...} 1 info-metric carrying the provenance record.
    [[nodiscard]] std::string render_prometheus() const;

    /// Zeroes every value (handles stay valid). Test-only affordance.
    void reset_values();

    Registry();
    ~Registry();
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// The process-wide registry.
[[nodiscard]] Registry& registry();

/// Well-known handles, registered on first use. Call obs::metrics() once
/// outside a hot loop; the handles themselves are lock-free.
struct Metrics {
    Counter& samples_total;          ///< measurements actually drawn
    Counter& samples_fixed_n_total;  ///< what a fixed-N plan would have drawn
    Counter& adaptive_rounds;        ///< engine rounds (clusterings consulted)
    Counter& clusterings_total;      ///< RelativeClusterer::cluster calls
    Counter& bootstrap_resamples_total; ///< bootstrap resamples drawn: 2 per
                                        ///< round, settled rounds included
    Counter& executions_total;       ///< executor run_once invocations
    Counter& shards_total;           ///< campaign shards measured
    Counter& shard_merges_total;     ///< merge_shards calls
    Counter& coordination_rounds;    ///< coordinator round-loop iterations
    Counter& stopset_broadcast_total; ///< per-shard stop-set broadcasts
    Counter& cache_hits_total;       ///< result-cache exact hits
    Counter& cache_misses_total;     ///< result-cache misses
    Counter& cache_extensions_total; ///< result-cache prefix extensions
    /// Samples served from cached entries instead of the executor (the
    /// measurement cost a prefix extension or exact hit avoided).
    Counter& cache_extension_samples_saved_total;
    Histogram& shard_seconds;        ///< wall seconds per shard
};

[[nodiscard]] const Metrics& metrics();

/// RAII wall-clock timer feeding a histogram; arms only when metrics are
/// enabled at construction, so the disabled path reads no clock.
class ScopedHistogramTimer {
public:
    explicit ScopedHistogramTimer(Histogram& h) noexcept
        : histogram_(h),
          armed_(metrics_enabled()),
          start_us_(armed_ ? now_micros() : 0) {}
    ~ScopedHistogramTimer() {
        if (armed_) {
            histogram_.observe(
                static_cast<double>(now_micros() - start_us_) * 1e-6);
        }
    }
    ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
    ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

private:
    Histogram& histogram_;
    bool armed_;
    std::uint64_t start_us_;
};

} // namespace relperf::obs
