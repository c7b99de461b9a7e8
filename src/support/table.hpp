#pragma once
//! \file table.hpp
//! Minimal ASCII table renderer used by the benchmark harness and the report
//! module to print paper-shaped tables (e.g. Table I of the paper).

#include <cstddef>
#include <string>
#include <vector>

namespace relperf::support {

/// Column alignment inside an AsciiTable.
enum class Align { Left, Right };

/// Builds fixed-width ASCII tables:
///
///     +---------+--------+
///     | Cluster | Score  |
///     +---------+--------+
///     | C1      |  1.000 |
///     +---------+--------+
///
/// Rows are strings; numeric formatting is the caller's responsibility
/// (see relperf::str::fixed).
class AsciiTable {
public:
    /// Creates a table with the given header row. The column count of every
    /// subsequent row must match the header.
    explicit AsciiTable(std::vector<std::string> header,
                        std::vector<Align> aligns = {});

    /// Appends a body row; throws InvalidArgument on column-count mismatch.
    void add_row(std::vector<std::string> row);

    /// Appends a horizontal separator line between body rows.
    void add_separator();

    /// Renders the complete table, trailing newline included.
    [[nodiscard]] std::string render() const;

private:
    struct Row {
        std::vector<std::string> cells;
        bool separator = false;
    };

    std::vector<std::string> header_;
    std::vector<Align> aligns_;
    std::vector<Row> rows_;
};

} // namespace relperf::support
