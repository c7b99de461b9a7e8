#pragma once
//! \file bootstrap.hpp
//! Bootstrap resampling — the statistical engine behind the paper's
//! three-way comparison (Sec. III; methodology of ref. [15]).
//!
//! The core operation is: draw a with-replacement resample of a measurement
//! sample and evaluate a statistic on it. core::BootstrapComparator draws the
//! same indices without copying the values (it tallies their ranks);
//! resample() is the copying form, kept as that comparator's oracle and for
//! the benches that time it.

#include "stats/rng.hpp"

#include <span>
#include <vector>

namespace relperf::stats {

/// Draws one bootstrap resample (size `m`, with replacement) from `sample`
/// into `out` (resized as needed).
void resample(std::span<const double> sample, std::size_t m, Rng& rng,
              std::vector<double>& out);

/// Convenience overload returning a fresh vector.
[[nodiscard]] std::vector<double> resample(std::span<const double> sample,
                                           std::size_t m, Rng& rng);

} // namespace relperf::stats
