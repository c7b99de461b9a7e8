#pragma once
//! \file io.hpp
//! Measurement I/O: load a MeasurementSet from the CSV format produced by
//! core::write_measurements_csv (header `algorithm,measurement_index,seconds`)
//! so distributions measured elsewhere (real devices, other tools, campaign
//! shards) can be clustered by relperf.

#include "core/measurement.hpp"

#include <string>

namespace relperf::core {

/// Parses a measurements CSV. Algorithms appear in first-seen order and row
/// order defines the sample order; measurement_index must be a non-negative
/// integer, seconds a finite non-negative number, and a repeated
/// (algorithm, measurement_index) pair is an error.
/// Tolerates CRLF line endings, a UTF-8 BOM, `#` comment lines and blank
/// lines. Throws relperf::Error on missing file, bad header or malformed
/// rows; the message names the file and the 1-based line number.
[[nodiscard]] MeasurementSet read_measurements_csv(const std::string& path);

/// Parses CSV content from a string. `source` is the name used in error
/// messages (the file name when called through read_measurements_csv).
[[nodiscard]] MeasurementSet parse_measurements_csv(const std::string& content,
                                                    const std::string& source =
                                                        "<string>");

} // namespace relperf::core
