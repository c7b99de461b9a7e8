#include "support/parallel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <set>
#include <thread>

namespace support = relperf::support;

TEST(Parallel, PoolNeverRunsWiderThanTheMachine) {
    // Asked for four threads more than the machine has, with as many
    // indices, the pool still runs at most hardware_threads() wide. Each
    // body sleeps, so an uncapped pool would show every thread it started.
    const std::size_t wide = support::hardware_threads() + 4;
    std::mutex mutex;
    std::set<std::thread::id> ids;
    support::parallel_for(wide, wide, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), support::hardware_threads());
}
