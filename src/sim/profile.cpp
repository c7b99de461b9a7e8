#include "sim/profile.hpp"

#include "support/error.hpp"

namespace relperf::sim {

using workloads::Placement;

CalibratedProfile::CalibratedProfile(std::string name, std::vector<TaskTiming> timings,
                                     double exit_cost_s)
    : name_(std::move(name)), timings_(std::move(timings)), exit_cost_s_(exit_cost_s) {
    RELPERF_REQUIRE(!timings_.empty(), "CalibratedProfile: need at least one task");
    RELPERF_REQUIRE(exit_cost_s_ >= 0.0, "CalibratedProfile: exit cost must be >= 0");
    for (const TaskTiming& t : timings_) {
        RELPERF_REQUIRE(t.per_iter_device_s >= 0.0 && t.per_iter_accel_s >= 0.0,
                        "CalibratedProfile: per-iteration costs must be >= 0");
        RELPERF_REQUIRE(t.enter_accel_s >= 0.0 && t.enter_device_s >= 0.0,
                        "CalibratedProfile: staging costs must be >= 0");
    }
}

TaskTimeParts CalibratedProfile::task_parts(const workloads::TaskChain& chain,
                                            std::size_t index, Placement p,
                                            Placement prev) const {
    RELPERF_REQUIRE(chain.size() == timings_.size(),
                    "CalibratedProfile: chain '" + chain.name +
                        "' does not match this profile's task count");
    RELPERF_REQUIRE(index < timings_.size(), "CalibratedProfile: task index out of range");
    const TaskTiming& t = timings_[index];
    const double iters = static_cast<double>(chain.tasks[index].iters);

    TaskTimeParts parts;
    if (p == Placement::Device) {
        parts.compute_s = iters * t.per_iter_device_s;
        if (prev == Placement::Accelerator) parts.staging_s = t.enter_device_s;
    } else {
        parts.compute_s = iters * t.per_iter_accel_s;
        if (prev == Placement::Device) {
            parts.staging_s = t.enter_accel_s;
        } else {
            parts.compute_s += t.resident_extra_s;
        }
    }
    RELPERF_ASSERT(parts.compute_s >= 0.0,
                   "CalibratedProfile: resident_extra drove compute time negative");
    return parts;
}

double CalibratedProfile::exit_seconds(const workloads::TaskChain& chain,
                                       Placement last) const {
    RELPERF_REQUIRE(chain.size() == timings_.size(),
                    "CalibratedProfile: chain does not match this profile");
    return last == Placement::Accelerator ? exit_cost_s_ : 0.0;
}

CalibratedProfile paper_rls_profile() {
    // Units: seconds. Derivation (targets in profile.hpp; the resulting means
    // are pinned by sim.PaperRlsProfile.GoldenExpectedMeans):
    //  * per-iteration device times follow rls_flops(s) at the effective
    //    single-core rates of a Xeon 8160 core under framework dispatch
    //    (~30 us/op * 10 ops/iter included);
    //  * accelerator per-iteration times are launch-bound for s = 50/75 and
    //    compute-efficient for s = 300 (GPU wins only on the large task);
    //  * staging costs grow with the task's working set; exiting the chain
    //    from the accelerator costs one result readback.
    std::vector<TaskTiming> timings = {
        // L1, size 50: GPU launch-bound, offload loses ~2.5x.
        TaskTiming{0.42e-3, 1.06e-3, 0.4e-3, 0.8e-3, 0.0},
        // L2, size 75: GPU still launch-bound, offload loses ~1.5x.
        TaskTiming{0.74e-3, 1.12e-3, 0.4e-3, 0.8e-3, 0.0},
        // L3, size 300: GPU wins per-iteration; staging is size-dependent.
        TaskTiming{3.26e-3, 2.46e-3, 3.4e-3, 4.4e-3, 0.0},
    };
    return CalibratedProfile("paper-rls(xeon8160+p100,tf2.1)", std::move(timings),
                             1.0e-3);
}

CalibratedProfile fig1b_profile() {
    // Units: seconds. Figure 1b regime (two-loop GEMM chain, aggregate
    // loops => iters = 1):
    //  * L1 offload wins big (50 ms -> ~2.4 ms);
    //  * L2 offload loses slightly: the streamed 800 MB cost marginally
    //    exceeds the GPU compute gain (paper Sec. I);
    //  * running L2 on the accelerator right after L1-on-accelerator is
    //    slower still (+4.5 ms): framework memory-pool interference, the
    //    mechanism that separates AA from AD while DD ~ DA stays equivalent.
    std::vector<TaskTiming> timings = {
        TaskTiming{50.0e-3, 2.0e-3, 0.4e-3, 0.5e-3, 0.0},
        TaskTiming{80.0e-3, 80.1e-3, 0.5e-3, 0.5e-3, 4.5e-3},
    };
    return CalibratedProfile("fig1b-two-loop(xeon8160+p100,tf2.1)",
                             std::move(timings), 0.5e-3);
}

} // namespace relperf::sim
