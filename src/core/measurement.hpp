#pragma once
//! \file measurement.hpp
//! Containers for the repeated measurements of each algorithm — the input
//! of the relative-performance analysis. Samples are appendable per
//! algorithm (extend), so the adaptive measurement engine can grow an
//! algorithm's distribution round by round; with per-algorithm RNG streams
//! the grown sample is a deterministic prefix-extension of the fixed-N one.

#include "stats/descriptive.hpp"

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace relperf::core {

/// One algorithm's measurement sample.
struct AlgorithmMeasurements {
    std::string name;            ///< e.g. "algDDA".
    std::vector<double> samples; ///< N measurements (seconds by convention).
};

/// An ordered set of algorithms with their measurement distributions.
/// Indices into this set are the algorithm identities used by the sorter and
/// the clusterer.
class MeasurementSet {
public:
    MeasurementSet() = default;

    /// Appends an algorithm; names must be unique and samples non-empty,
    /// finite and non-negative. Returns the algorithm's index.
    std::size_t add(std::string name, std::vector<double> samples);

    /// Appends further samples to the algorithm at `index` (the adaptive
    /// engine's per-round extension). Samples must be non-empty, finite and
    /// non-negative, like add()'s.
    void extend(std::size_t index, std::span<const double> samples);

    /// Reserves storage for `capacity` total samples of the algorithm at
    /// `index`. Callers that know the final budget (the adaptive cap, a
    /// cache extension's target N) pay one allocation up front instead of a
    /// reallocation-plus-copy on every extend. No effect on the values.
    void reserve_samples(std::size_t index, std::size_t capacity);

    [[nodiscard]] std::size_t size() const noexcept { return algorithms_.size(); }
    [[nodiscard]] bool empty() const noexcept { return algorithms_.empty(); }

    [[nodiscard]] const AlgorithmMeasurements& at(std::size_t index) const;
    [[nodiscard]] std::span<const double> samples(std::size_t index) const;
    [[nodiscard]] const std::string& name(std::size_t index) const;

    /// Index of the algorithm called `name`; throws if absent. O(1): backed
    /// by a name -> index map (the merge path calls this once per algorithm
    /// over campaigns of up to 65536 algorithms).
    [[nodiscard]] std::size_t index_of(const std::string& name) const;
    [[nodiscard]] bool contains(const std::string& name) const noexcept;

    /// Summary statistics of one algorithm's sample.
    [[nodiscard]] stats::Summary summary(std::size_t index) const;

    /// Total number of samples across all algorithms.
    [[nodiscard]] std::size_t total_samples() const noexcept;

private:
    std::vector<AlgorithmMeasurements> algorithms_;
    std::unordered_map<std::string, std::size_t> index_by_name_;
};

} // namespace relperf::core
