#pragma once
//! \file generator.hpp
//! Randomized workload generation for the property tests: chains with random
//! lengths/sizes/iteration counts, drawn reproducibly.

#include "stats/rng.hpp"
#include "workloads/chain.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace relperf::workloads {

/// Parameter ranges for random chains (inclusive bounds).
struct GeneratorConfig {
    std::size_t min_tasks = 2;
    std::size_t max_tasks = 4;
    std::size_t min_size = 32;
    std::size_t max_size = 256;
    std::size_t min_iters = 1;
    std::size_t max_iters = 20;
    /// Probability that a generated task is a GEMM loop (else RLS loop).
    double gemm_prob = 0.3;
    /// linalg backends to draw the chain's backend from, uniformly. Empty
    /// (the default) leaves chain.backend empty — the chain inherits the
    /// active backend, exactly the pre-backend behavior. Entries need not be
    /// registered in this build: the chain is plain data; executing it on a
    /// missing backend throws then.
    std::vector<std::string> backends;
};

/// Draws a random chain; deterministic in (config, rng state).
[[nodiscard]] TaskChain random_chain(const GeneratorConfig& config, stats::Rng& rng);

} // namespace relperf::workloads
