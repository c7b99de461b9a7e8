#pragma once
// The three benchmark workloads. An untraced op runs through the library
// entry point that `relperf_cli --campaign ... --run` calls for its mode. A
// traced op re-composes the same work from public calls, with timing
// decorators around a core::Comparator and a core::SampleSource, so the op
// splits into layers without any span inside the library.

#include "core/pipeline.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace relbench {

/// Problem size: the paper defaults, or the reduced smoke size.
struct Size {
    std::size_t repetitions = 100;      ///< Rep.
    std::size_t bootstrap_rounds = 100; ///< R.
};

/// Where a workload reads references and writes scratch files.
struct Paths {
    std::string source_root; ///< The checkout (holds ci/golden/).
    std::string refs;        ///< Committed references, one dir per seed.
    std::string work;        ///< Scratch directory owned by this process.
};

/// What one op produced, one entry per campaign call (cache: three tiers).
struct OpOutput {
    std::vector<relperf::core::AnalysisResult> results;
    std::vector<std::uint64_t> samples_drawn; ///< relperf_samples_total delta.
    std::vector<std::string> hit_kinds;       ///< Cache tiers only.
    std::size_t rounds = 0;                   ///< Adaptive engine rounds.
};

/// Per-layer numbers of one traced op, keyed by per_layer metric name.
/// Layers a workload does not run, or that no public seam exposes on it,
/// are absent and reported as 0.
using Layers = std::map<std::string, double>;

/// The expected output of one campaign call.
struct Reference {
    std::string csv;                  ///< Clustering CSV.
    std::vector<std::size_t> per_alg; ///< Sample counts (adaptive only).
};

class Workload {
public:
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    /// Untimed preparation before every op (the cache empties its dir).
    virtual void prepare() {}

    /// One untraced op.
    [[nodiscard]] virtual OpOutput run() = 0;

    /// One traced op: the same work split into layers. Sets
    /// layers["traced_wall_s"] to the op's own wall time. Throws
    /// relperf::Error when a decorator count disagrees with the program's
    /// own counter.
    [[nodiscard]] virtual OpOutput run_traced(Layers& layers) = 0;

    /// Empty when the op's rendered CSVs and counts match `refs`, else the
    /// first mismatch.
    [[nodiscard]] virtual std::string check(
        const OpOutput& out, const std::vector<std::string>& csvs,
        const std::vector<Reference>& refs) const = 0;

    /// The committed references for this seed; empty when this seed has
    /// none. Throws when a committed file exists but cannot be read.
    [[nodiscard]] virtual std::vector<Reference> committed_references() const = 0;

    /// References computed through an independent path of the library
    /// (one shard, one worker, no cache): for seeds without committed
    /// references, and for the smoke test.
    [[nodiscard]] virtual std::vector<Reference> independent_references() = 0;

    /// The clustering CSVs of an op, rendered by the library's writer.
    [[nodiscard]] std::vector<std::string> render(const OpOutput& out) const;

protected:
    Workload(std::uint64_t seed, Paths paths);

    /// Path of committed reference `name` for this seed.
    [[nodiscard]] std::string ref_path(const std::string& name) const;

    std::uint64_t seed_;
    Paths paths_;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds `name` for `seed`; throws relperf::InvalidArgument on an unknown
/// name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      const Size& size,
                                                      const Paths& paths);

/// The per_layer metric names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& layer_names();

/// Reads a whole file; throws relperf::Error when it cannot.
[[nodiscard]] std::string read_file(const std::string& path);

} // namespace relbench
