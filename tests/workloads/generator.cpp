#include "generator.hpp"

#include "support/error.hpp"

namespace relperf::workloads {

namespace {
std::size_t draw_in(std::size_t lo, std::size_t hi, stats::Rng& rng) {
    return lo + static_cast<std::size_t>(rng.uniform_index(hi - lo + 1));
}
} // namespace

TaskChain random_chain(const GeneratorConfig& config, stats::Rng& rng) {
    RELPERF_REQUIRE(config.min_tasks >= 1 && config.min_tasks <= config.max_tasks,
                    "random_chain: invalid task-count range");
    RELPERF_REQUIRE(config.min_size >= 2 && config.min_size <= config.max_size,
                    "random_chain: invalid size range");
    RELPERF_REQUIRE(config.min_iters >= 1 && config.min_iters <= config.max_iters,
                    "random_chain: invalid iters range");
    RELPERF_REQUIRE(config.gemm_prob >= 0.0 && config.gemm_prob <= 1.0,
                    "random_chain: gemm_prob must be a probability");
    for (const std::string& backend : config.backends) {
        RELPERF_REQUIRE(!backend.empty(),
                        "random_chain: backend names must not be empty");
    }

    TaskChain chain;
    chain.name = "random-chain";
    if (!config.backends.empty()) {
        chain.backend =
            config.backends[rng.uniform_index(config.backends.size())];
    }
    const std::size_t tasks = draw_in(config.min_tasks, config.max_tasks, rng);
    chain.tasks.reserve(tasks);
    for (std::size_t i = 0; i < tasks; ++i) {
        TaskSpec spec;
        spec.name = "L" + std::to_string(i + 1);
        spec.kind = rng.bernoulli(config.gemm_prob) ? TaskKind::GemmLoop
                                                    : TaskKind::RlsLoop;
        spec.size = draw_in(config.min_size, config.max_size, rng);
        spec.iters = draw_in(config.min_iters, config.max_iters, rng);
        chain.tasks.push_back(std::move(spec));
    }
    return chain;
}

} // namespace relperf::workloads
