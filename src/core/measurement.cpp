#include "core/measurement.hpp"

#include "support/error.hpp"

#include <cmath>

namespace relperf::core {

namespace {

void require_valid_samples(std::span<const double> samples, const char* who) {
    RELPERF_REQUIRE(!samples.empty(),
                    std::string(who) + ": samples must be non-empty");
    for (const double s : samples) {
        RELPERF_REQUIRE(std::isfinite(s) && s >= 0.0,
                        std::string(who) +
                            ": measurements must be finite and non-negative");
    }
}

} // namespace

std::size_t MeasurementSet::add(std::string name, std::vector<double> samples) {
    RELPERF_REQUIRE(!name.empty(), "MeasurementSet: algorithm name must be non-empty");
    require_valid_samples(samples, "MeasurementSet");
    RELPERF_REQUIRE(!contains(name), "MeasurementSet: duplicate algorithm '" + name + "'");
    algorithms_.push_back(AlgorithmMeasurements{std::move(name), std::move(samples)});
    index_by_name_.emplace(algorithms_.back().name, algorithms_.size() - 1);
    return algorithms_.size() - 1;
}

void MeasurementSet::extend(std::size_t index, std::span<const double> samples) {
    RELPERF_REQUIRE(index < algorithms_.size(),
                    "MeasurementSet::extend: index out of range");
    require_valid_samples(samples, "MeasurementSet::extend");
    std::vector<double>& existing = algorithms_[index].samples;
    existing.insert(existing.end(), samples.begin(), samples.end());
}

void MeasurementSet::reserve_samples(std::size_t index, std::size_t capacity) {
    RELPERF_REQUIRE(index < algorithms_.size(),
                    "MeasurementSet::reserve_samples: index out of range");
    algorithms_[index].samples.reserve(capacity);
}

const AlgorithmMeasurements& MeasurementSet::at(std::size_t index) const {
    RELPERF_REQUIRE(index < algorithms_.size(), "MeasurementSet: index out of range");
    return algorithms_[index];
}

std::span<const double> MeasurementSet::samples(std::size_t index) const {
    return at(index).samples;
}

const std::string& MeasurementSet::name(std::size_t index) const {
    return at(index).name;
}

std::size_t MeasurementSet::index_of(const std::string& name) const {
    const auto it = index_by_name_.find(name);
    if (it == index_by_name_.end()) {
        throw InvalidArgument("MeasurementSet: unknown algorithm '" + name + "'");
    }
    return it->second;
}

bool MeasurementSet::contains(const std::string& name) const noexcept {
    return index_by_name_.find(name) != index_by_name_.end();
}

std::vector<std::string> MeasurementSet::names() const {
    std::vector<std::string> out;
    out.reserve(algorithms_.size());
    for (const AlgorithmMeasurements& alg : algorithms_) out.push_back(alg.name);
    return out;
}

stats::Summary MeasurementSet::summary(std::size_t index) const {
    return stats::summarize(samples(index));
}

std::size_t MeasurementSet::total_samples() const noexcept {
    std::size_t total = 0;
    for (const AlgorithmMeasurements& alg : algorithms_) {
        total += alg.samples.size();
    }
    return total;
}

} // namespace relperf::core
