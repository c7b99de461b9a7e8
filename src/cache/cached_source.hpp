#pragma once
//! \file cached_source.hpp
//! SampleSource decorator that replays a cached sample prefix — the
//! mechanism behind a prefix-extension cache hit.
//!
//! A cached entry of the same plan with a smaller budget holds, per
//! algorithm, a byte-exact prefix of what the larger-budget run would draw
//! (per-assignment RNG streams make samples prefix-extensible). Wrapping the
//! real executor-backed source with a CachedSampleSource lets
//! core::analyze_source or the coordinated campaign re-run from scratch
//! while the first `cached` samples of every algorithm are served from the
//! entry instead of the executor. The caller's decisions (adaptive stops,
//! clusterings) see identical values in identical order, so the final
//! MeasurementSet is bit-identical to a cold full run;
//! only draws beyond the cached prefix reach the inner source, after its
//! stream is fast-forwarded (SampleSource::skip) past the consumed prefix.
//!
//! Served samples increment relperf_cache_extension_samples_saved_total and
//! — deliberately — not relperf_samples_total: the leaf executor-backed
//! sources own the "actually drawn" accounting, so an exact hit reports
//! zero samples and an extension reports exactly the delta.

#include "core/measurement.hpp"
#include "core/measurement_engine.hpp"

#include <cstddef>
#include <vector>

namespace relperf::cache {

/// Replays `cached`'s samples as the per-algorithm stream prefix of `inner`.
/// `cached` must enumerate exactly `inner`'s algorithms (same order, same
/// names) — the cache guarantees this by validating entries against the
/// query spec before handing them here.
class CachedSampleSource final : public core::SampleSource {
public:
    CachedSampleSource(core::SampleSource& inner,
                       const core::MeasurementSet& cached);

    [[nodiscard]] std::size_t count() const override;
    [[nodiscard]] std::string name(std::size_t index) const override;
    [[nodiscard]] std::vector<double> draw(std::size_t index,
                                           std::size_t n) override;
    void skip(std::size_t index, std::size_t n) override;

    /// Samples served from the cached prefix (across all algorithms).
    [[nodiscard]] std::size_t served() const noexcept { return served_; }

private:
    /// Fast-forwards the inner stream past every cached-prefix sample this
    /// wrapper has consumed for `index` (lazy: runs at most once per draw
    /// that goes beyond the prefix, and only for the not-yet-skipped part).
    void sync_inner(std::size_t index);

    core::SampleSource& inner_;
    const core::MeasurementSet& cached_;
    std::vector<std::size_t> consumed_;       ///< total consumed per alg
    std::vector<std::size_t> inner_skipped_;  ///< prefix samples skipped in inner
    std::size_t served_ = 0;
};

} // namespace relperf::cache
