#pragma once
//! \file parallel.hpp
//! The library's one worker-pool shape: threads claim indices from an atomic
//! counter until it runs out, then join. The campaign's shard runner and the
//! clusterer's repetitions both run on it, sized by the same `workers` knob.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace relperf::support {

/// Hardware threads of this machine (at least 1).
[[nodiscard]] inline std::size_t hardware_threads() noexcept {
    return std::max(1u, std::thread::hardware_concurrency());
}

/// Resolves a `workers` knob: 0 means one thread per hardware thread.
[[nodiscard]] inline std::size_t resolve_workers(std::size_t workers) noexcept {
    return workers == 0 ? hardware_threads() : workers;
}

/// Calls body(i) once for every i in [0, count) on min(threads, count,
/// hardware_threads()) threads, the caller being one of them: the pool never
/// runs wider than the machine, and with one thread the same loop runs
/// inline and nothing is spawned. A throwing body(i) stops further claims;
/// after the join the exception of the lowest failing index is rethrown.
/// Every index below it was claimed earlier and ran to completion, so that
/// is the exception a serial loop would have thrown first.
template <typename Body>
void parallel_for(std::size_t count, std::size_t threads, const Body& body) {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<std::exception_ptr> errors(count);
    const auto drain = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i = next.fetch_add(1);
            if (i >= count) return;
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };
    const std::size_t width = std::min({threads, count, hardware_threads()});
    std::vector<std::thread> pool;
    pool.reserve(width);
    for (std::size_t t = 1; t < width; ++t) {
        // A thread the system refuses only narrows the pool: the indices
        // left over go to the threads that did start.
        try {
            pool.emplace_back(drain);
        } catch (const std::system_error&) {
            break;
        }
    }
    drain();
    for (std::thread& worker : pool) worker.join();
    for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

} // namespace relperf::support
