#pragma once
//! \file obs.hpp
//! Process-wide observability switches and the progress channel.
//!
//! The whole obs layer (trace spans, metrics, progress) hangs off two
//! relaxed atomics so that instrumented hot paths pay exactly one relaxed
//! load when observability is off — no allocation, no clock read, no lock
//! (gtest-asserted in tests/obs/noop_test.cpp). Everything obs emits is a
//! write-only side channel: enabling it must never change measurement
//! CSVs, plan hashes or clusterings (tests/obs/determinism_test.cpp).

#include <cstddef>
#include <functional>

namespace relperf::obs {

/// True when trace spans record events (relperf_cli --trace).
[[nodiscard]] bool tracing_enabled() noexcept;

/// True when metric counters and histograms accumulate.
[[nodiscard]] bool metrics_enabled() noexcept;

void set_tracing_enabled(bool on) noexcept;
void set_metrics_enabled(bool on) noexcept;

/// One progress tick. `stage` is a static string ("shards", "engine.round"),
/// `done`/`total` the position within that stage.
struct Progress {
    const char* stage;
    std::size_t done;
    std::size_t total;
};

/// Sink for progress ticks (the CLI's --progress meter). Pass an empty
/// function to uninstall. The sink is invoked under an internal mutex, so
/// it may be called from shard worker threads without its own locking.
void set_progress_sink(std::function<void(const Progress&)> sink);

/// Reports a tick to the installed sink; a cheap no-op (one relaxed load)
/// when no sink is installed.
void report_progress(const char* stage, std::size_t done, std::size_t total);

} // namespace relperf::obs
