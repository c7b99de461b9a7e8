#pragma once
//! \file bench_common.hpp
//! Shared plumbing for the experiment binaries: standard CLI options and the
//! default paper configuration.

#include "core/pipeline.hpp"
#include "linalg/backend.hpp"
#include "support/cli.hpp"
#include "support/str.hpp"

#include <cstdio>
#include <string>

namespace relperf::bench {

/// Adds the options every experiment binary shares.
inline void add_common_options(support::CliParser& cli) {
    cli.add_option("seed", "master seed for measurements", "42");
    cli.add_option("rep", "clustering repetitions (paper Rep)", "100");
    cli.add_option("csv", "write raw results to this CSV path", "");
}

/// Adds the linalg-backend options for benches that execute kernels.
inline void add_backend_options(support::CliParser& cli) {
    cli.add_option("backend", "linalg backend to measure on "
                              "(see --list-backends)", "");
    cli.add_flag("list-backends", "list the linalg backends of this build "
                                  "and exit");
}

/// Prints the registered backends (the --list-backends probe body).
inline void print_backends() {
    std::printf("linalg backends in this build (default: %s):\n",
                linalg::default_backend().name.c_str());
    for (const std::string& name : linalg::backend_names()) {
        std::printf("  %-10s %s\n", name.c_str(),
                    linalg::backend(name).description.c_str());
    }
}

/// Handles the backend options after parse(). Returns false when the caller
/// should exit (--list-backends printed); otherwise installs --backend as
/// the process default so every kernel the bench runs dispatches to it.
[[nodiscard]] inline bool apply_backend_options(const support::CliParser& cli) {
    if (cli.flag("list-backends")) {
        print_backends();
        return false;
    }
    if (const auto backend = cli.value_optional("backend")) {
        linalg::set_default_backend(*backend);
    }
    return true;
}

/// The parsed --rep: a positive count, or InvalidArgument naming the flag.
[[nodiscard]] inline std::size_t repetitions(const support::CliParser& cli) {
    return str::parse_positive_size(cli.value("rep"), "--rep");
}

/// The parsed --seed: decimal, or hex after 0x.
[[nodiscard]] inline std::uint64_t seed(const support::CliParser& cli) {
    return str::parse_u64(cli.value("seed"), "--seed");
}

/// Builds the analysis config from parsed common options.
inline core::AnalysisConfig analysis_config(const support::CliParser& cli,
                                            std::size_t measurements) {
    core::AnalysisConfig config;
    config.measurements_per_alg = measurements;
    config.clustering.repetitions = repetitions(cli);
    config.measurement_seed = seed(cli);
    config.clustering.seed = config.measurement_seed * 7919 + 17;
    return config;
}

/// Prints a section header.
inline void section(const std::string& title) {
    std::printf("\n=== %s ===\n\n", title.c_str());
}

} // namespace relperf::bench
