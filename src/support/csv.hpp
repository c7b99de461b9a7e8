#pragma once
//! \file csv.hpp
//! RFC-4180-ish CSV writer. Every bench binary can dump its series with
//! `--csv <path>` so plots can be regenerated outside of C++.

#include <fstream>
#include <string>
#include <vector>

namespace relperf::support {

/// Streams rows into a CSV file; fields containing separators/quotes/newlines
/// are quoted and inner quotes doubled.
class CsvWriter {
public:
    /// Opens (truncates) `path` and writes the header row immediately.
    /// Throws relperf::Error when the file cannot be opened.
    CsvWriter(const std::string& path, const std::vector<std::string>& header);

    /// Appends a data row; throws InvalidArgument on width mismatch.
    void add_row(const std::vector<std::string>& row);

    /// Flushes and closes; called by the destructor as well.
    void close();

    ~CsvWriter();
    CsvWriter(const CsvWriter&) = delete;
    CsvWriter& operator=(const CsvWriter&) = delete;

private:
    void write_row(const std::vector<std::string>& row);

    std::ofstream out_;
    std::size_t width_;
};

/// Escapes a single CSV field (exposed for unit tests).
[[nodiscard]] std::string csv_escape(const std::string& field);

/// Splits one CSV line into fields, handling the quoting csv_escape produces
/// (quoted fields, doubled inner quotes) and stripping a trailing CR. The
/// inverse of write_row for a single line.
[[nodiscard]] std::vector<std::string> csv_split_row(const std::string& line);

} // namespace relperf::support
