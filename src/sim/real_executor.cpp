#include "sim/real_executor.hpp"

#include "linalg/backend.hpp"
#include "linalg/gemm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "workloads/mathtask.hpp"
#include "workloads/task.hpp"

#include <chrono>
#include <optional>
#include <string>
#include <thread>

namespace relperf::sim {

using workloads::Placement;

namespace {

/// Restores the raw gemm thread setting on scope exit, so a throwing task
/// cannot leak the per-device clamp into the process-wide setting (other
/// shard workers would measure under the wrong clamp).
class ThreadSettingRestorer {
public:
    ThreadSettingRestorer() : saved_(linalg::gemm_thread_setting()) {}
    ~ThreadSettingRestorer() { linalg::set_gemm_threads(saved_); }
    ThreadSettingRestorer(const ThreadSettingRestorer&) = delete;
    ThreadSettingRestorer& operator=(const ThreadSettingRestorer&) = delete;

private:
    int saved_;
};

/// Stream id of the warmup rng derived from each measurement stream. Any
/// fixed value works as long as nothing else derives children from the
/// per-assignment streams (the sharder derives children of the *master*).
constexpr std::uint64_t kWarmupStream = 0x57A12A11ULL;

void busy_or_sleep(double seconds) {
    if (seconds <= 0.0) return;
    if (seconds < 50e-6) {
        // Short delays: spin for accuracy (sleep granularity is too coarse).
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::duration<double>(seconds);
        while (std::chrono::steady_clock::now() < until) {
        }
    } else {
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    }
}

/// Throws unless busy_or_sleep can take `seconds`: std::chrono converts a
/// delay to integer counts, which overflow past INT64_MAX ns. NaN and inf
/// fail the test too.
void require_delay(double seconds, const std::string& key) {
    RELPERF_REQUIRE(seconds >= 0.0 && seconds * 1e9 < 0x1p63,
                    "RealExecutor: " + key +
                        " must be finite, >= 0 and at most INT64_MAX ns, got " +
                        str::format("%.17g", seconds));
}

} // namespace

RealExecutor::RealExecutor(EmulatedDevice device, EmulatedDevice accelerator)
    : device_(device), accelerator_(accelerator) {
    RELPERF_REQUIRE(device_.threads >= 0 && accelerator_.threads >= 0,
                    "RealExecutor: thread counts must be >= 0 (0 = all)");
    require_delay(device_.dispatch_delay_s, "device dispatch_delay_s");
    require_delay(device_.switch_delay_s, "device switch_delay_s");
    require_delay(accelerator_.dispatch_delay_s, "accelerator dispatch_delay_s");
    require_delay(accelerator_.switch_delay_s, "accelerator switch_delay_s");
}

double RealExecutor::run_once(const workloads::TaskChain& chain,
                              const workloads::VariantAssignment& variant,
                              stats::Rng& rng) const {
    RELPERF_REQUIRE(chain.size() == variant.size(),
                    "RealExecutor: assignment length must match chain length");
    // Save the raw setting (not the resolved team size): restoring a
    // resolved value would silently pin "library default" (0) to whatever
    // the machine width was during this run.
    const ThreadSettingRestorer restore_threads;

    // The backends are part of what is being measured; resolve them all
    // before the clock starts so registry lookups (and their mutex) never
    // land inside the timed region. nullptr = inherit the ambient backend.
    std::vector<const linalg::Backend*> task_backends(chain.size(), nullptr);
    for (std::size_t i = 0; i < chain.size(); ++i) {
        const std::string& name = variant.resolved_backend(i, chain.backend);
        if (!name.empty()) task_backends[i] = &linalg::backend(name);
    }

    const auto start = std::chrono::steady_clock::now();
    double carry = 0.0;
    Placement prev = Placement::Device;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        const Placement p = variant.at(i).placement;
        const EmulatedDevice& emu =
            p == Placement::Device ? device_ : accelerator_;
        if (p != prev) busy_or_sleep(emu.switch_delay_s);
        linalg::set_gemm_threads(emu.threads);

        // Artificial per-launch dispatch overhead, applied up front (the sum
        // is what matters for the total; interleaving would not change it).
        const workloads::TaskCost cost = workloads::task_cost(chain.tasks[i]);
        busy_or_sleep(cost.op_launches * emu.dispatch_delay_s);

        // Enter this task's backend for exactly this task: a per-task policy
        // is what the variant's algorithm name promises was measured.
        std::optional<linalg::ScopedBackend> scope;
        if (task_backends[i] != nullptr) scope.emplace(*task_backends[i]);
        carry = workloads::run_task(chain.tasks[i], carry, rng);
        prev = p;
    }
    if (prev == Placement::Accelerator) busy_or_sleep(device_.switch_delay_s);
    const auto stop = std::chrono::steady_clock::now();

    (void)carry; // the scalar result is intentionally unused: timing only
    return std::chrono::duration<double>(stop - start).count();
}

std::vector<double> RealExecutor::measure(const workloads::TaskChain& chain,
                                          const workloads::VariantAssignment& variant,
                                          std::size_t n, stats::Rng& rng,
                                          std::size_t warmup) const {
    RELPERF_REQUIRE(n > 0, "RealExecutor: need at least one measurement");
    // The span brackets the whole batch (warmup included) from outside the
    // per-sample steady_clock reads, so enabling tracing perturbs no sample.
    obs::Span span("real.measure", "executor");
    if (span.armed()) span.arg("alg", variant.alg_name());
    span.arg("n", static_cast<std::uint64_t>(n))
        .arg("warmup", static_cast<std::uint64_t>(warmup));
    obs::metrics().executions_total.inc(n + warmup);
    // Warmup runs are hoisted onto their own stream, derived from the
    // measurement stream's seed but never advancing it: the measured values
    // consume the identical stream prefix for every warmup count, so warmup
    // is pure cache/codepath heating and cannot shift what is measured.
    if (warmup > 0) {
        stats::Rng warmup_rng = rng.child(kWarmupStream);
        for (std::size_t i = 0; i < warmup; ++i) {
            (void)run_once(chain, variant, warmup_rng);
        }
    }
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(run_once(chain, variant, rng));
    }
    return out;
}

} // namespace relperf::sim
