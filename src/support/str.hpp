#pragma once
//! \file str.hpp
//! Small string/formatting helpers (libstdc++ 12 has no std::format yet).

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace relperf::str {

/// printf-style formatting into a std::string.
/// Only used with trusted format strings inside the library.
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-point rendering of a double with `digits` decimals (no locale).
[[nodiscard]] std::string fixed(double value, int digits);

/// Compact human rendering of a duration in seconds ("12.3 ms", "4.56 s").
[[nodiscard]] std::string human_seconds(double seconds);

/// Compact human rendering of a byte count ("3.2 MiB").
[[nodiscard]] std::string human_bytes(double bytes);

/// Joins `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits on a single character; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Left/right padding to a minimum width (spaces).
[[nodiscard]] std::string pad_left(std::string_view text, std::size_t width);
[[nodiscard]] std::string pad_right(std::string_view text, std::size_t width);

/// Validated numeric parsing. Each helper throws relperf::InvalidArgument
/// naming `context` (e.g. "--sizes") when `text` is not entirely a number of
/// the requested shape — a clean CLI/config error instead of the
/// std::stoul/std::stod behaviour of silently accepting trailing junk or
/// calling std::terminate through an unhandled exception. parse_size reads
/// decimal only (`010` is 10, `0x1e` is rejected); parse_u64 also takes the
/// C prefixes `0x` (hex) and `0` (octal), for seeds and hashes.
[[nodiscard]] std::size_t parse_size(std::string_view text, const std::string& context);
/// As parse_size, additionally rejecting 0 (for knobs where zero would
/// silently mean "off" or "default" instead of what was typed).
[[nodiscard]] std::size_t parse_positive_size(std::string_view text,
                                              const std::string& context);
[[nodiscard]] std::uint64_t parse_u64(std::string_view text, const std::string& context);
[[nodiscard]] double parse_double(std::string_view text, const std::string& context);

/// Parses a comma-separated list of non-negative integers ("64,256").
/// Fields are trimmed; empty fields, junk and an empty list are rejected.
[[nodiscard]] std::vector<std::size_t> parse_size_list(std::string_view text,
                                                       const std::string& context);

/// Renders `values` the way parse_size_list reads them ("64,256").
[[nodiscard]] std::string format_size_list(const std::vector<std::size_t>& values);

/// Parses a comma-separated list of names ("portable,blas"); fields are
/// trimmed, empty fields dropped. Throws InvalidArgument naming `context`
/// when no name remains (e.g. "", "," or ", ,").
[[nodiscard]] std::vector<std::string> parse_name_list(std::string_view text,
                                                       const std::string& context);

/// Streams any << -able value into a string.
template <typename T>
[[nodiscard]] std::string to_string(const T& value) {
    std::ostringstream os;
    os << value;
    return os.str();
}

} // namespace relperf::str
