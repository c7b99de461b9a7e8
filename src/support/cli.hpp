#pragma once
//! \file cli.hpp
//! Tiny command-line option parser shared by the bench/example binaries.
//!
//! Supports `--flag`, `--key value` and `--key=value`. Unknown options throw,
//! so typos in experiment scripts fail loudly instead of silently running the
//! default configuration. Values stay strings: a program reads a number with
//! the str::parse_* helpers, which reject junk, out-of-range values and
//! negative counts with an error naming the flag.

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace relperf::support {

/// Declarative option set + parsed values.
class CliParser {
public:
    explicit CliParser(std::string program_description);

    /// Declares options. Must happen before parse().
    void add_flag(const std::string& name, const std::string& help);
    void add_option(const std::string& name, const std::string& help,
                    const std::string& default_value);

    /// Redirects help/usage output. Defaults to std::cout; tests and embedding
    /// callers can point it at any stream to capture the text. Must not be null.
    void set_output(std::ostream* out);

    /// Parses argv. Returns false (after writing usage to the output stream)
    /// when --help was requested; throws InvalidArgument on unknown or
    /// malformed options.
    [[nodiscard]] bool parse(int argc, const char* const* argv);

    [[nodiscard]] bool flag(const std::string& name) const;
    [[nodiscard]] std::string value(const std::string& name) const;
    /// Empty optional when the option still holds its declared default and the
    /// default was the empty string (used for e.g. optional --csv paths).
    [[nodiscard]] std::optional<std::string> value_optional(const std::string& name) const;

    [[nodiscard]] std::string usage() const;

private:
    struct Option {
        std::string help;
        std::string value;
        bool is_flag = false;
        bool flag_set = false;
    };

    const Option& lookup(const std::string& name) const;

    std::string description_;
    std::ostream* out_; // never null; defaults to &std::cout
    std::map<std::string, Option> options_;
    std::vector<std::string> order_;
};

} // namespace relperf::support
