#include "support/str.hpp"

#include "support/error.hpp"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace relperf::str {

namespace {

[[noreturn]] void bad_number(const std::string& context, std::string_view text,
                             const char* expected) {
    throw InvalidArgument(context + ": expected " + expected + ", got '" +
                          std::string(text) + "'");
}

/// strtoull over the whole trimmed `text` in `base` (0 = C prefixes).
std::uint64_t parse_unsigned(std::string_view text, const std::string& context,
                             int base) {
    const std::string_view trimmed = trim(text);
    if (trimmed.empty() || trimmed.front() == '-' || trimmed.front() == '+') {
        bad_number(context, text, "a non-negative integer");
    }
    const std::string buf(trimmed);
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(buf.c_str(), &end, base);
    if (end == nullptr || *end != '\0' || errno == ERANGE) {
        bad_number(context, text, "a non-negative integer");
    }
    return static_cast<std::uint64_t>(value);
}

} // namespace

std::size_t parse_size(std::string_view text, const std::string& context) {
    const std::uint64_t value = parse_unsigned(text, context, 10);
    if (value > std::numeric_limits<std::size_t>::max()) {
        bad_number(context, text, "a representable non-negative integer");
    }
    return static_cast<std::size_t>(value);
}

std::size_t parse_positive_size(std::string_view text,
                                const std::string& context) {
    const std::size_t value = parse_size(text, context);
    if (value == 0) {
        throw InvalidArgument(context + " must be positive");
    }
    return value;
}

std::uint64_t parse_u64(std::string_view text, const std::string& context) {
    return parse_unsigned(text, context, 0);
}

double parse_double(std::string_view text, const std::string& context) {
    const std::string buf(trim(text));
    if (buf.empty()) bad_number(context, text, "a number");
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(buf.c_str(), &end);
    if (end == nullptr || *end != '\0' || errno == ERANGE) {
        bad_number(context, text, "a number");
    }
    return value;
}

std::vector<std::size_t> parse_size_list(std::string_view text,
                                         const std::string& context) {
    // split() yields at least one field, so an empty/garbage `text` surfaces
    // as a parse_size error naming the context.
    std::vector<std::size_t> out;
    for (const std::string& field : split(text, ',')) {
        out.push_back(parse_size(field, context));
    }
    return out;
}

std::string format_size_list(const std::vector<std::size_t>& values) {
    std::vector<std::string> parts;
    parts.reserve(values.size());
    for (const std::size_t v : values) parts.push_back(std::to_string(v));
    return join(parts, ",");
}

std::vector<std::string> parse_name_list(std::string_view text,
                                         const std::string& context) {
    std::vector<std::string> out;
    for (const std::string& field : split(text, ',')) {
        std::string name(trim(field));
        if (!name.empty()) out.push_back(std::move(name));
    }
    if (out.empty()) {
        throw InvalidArgument(context + ": expected a comma-separated name "
                                        "list, got '" + std::string(text) +
                              "'");
    }
    return out;
}

std::string format(const char* fmt, ...) {
    std::va_list args;
    va_start(args, fmt);
    std::va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return {};
    }
    std::string out(static_cast<std::size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    va_end(args_copy);
    return out;
}

std::string fixed(double value, int digits) {
    return format("%.*f", digits, value);
}

std::string human_seconds(double seconds) {
    const double mag = std::fabs(seconds);
    if (mag >= 1.0) return format("%.3f s", seconds);
    if (mag >= 1e-3) return format("%.3f ms", seconds * 1e3);
    if (mag >= 1e-6) return format("%.3f us", seconds * 1e6);
    return format("%.1f ns", seconds * 1e9);
}

std::string human_bytes(double bytes) {
    static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    int unit = 0;
    while (std::fabs(bytes) >= 1024.0 && unit < 4) {
        bytes /= 1024.0;
        ++unit;
    }
    return format("%.2f %s", bytes, units[unit]);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i != 0) out.append(sep);
        out.append(parts[i]);
    }
    return out;
}

std::vector<std::string> split(std::string_view text, char sep) {
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (true) {
        const std::size_t pos = text.find(sep, begin);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(begin));
            return out;
        }
        out.emplace_back(text.substr(begin, pos - begin));
        begin = pos + 1;
    }
}

std::string_view trim(std::string_view text) {
    const auto is_space = [](char c) {
        return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
    };
    while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
    while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
    return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
    return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string pad_left(std::string_view text, std::size_t width) {
    if (text.size() >= width) return std::string(text);
    return std::string(width - text.size(), ' ') + std::string(text);
}

std::string pad_right(std::string_view text, std::size_t width) {
    if (text.size() >= width) return std::string(text);
    return std::string(text) + std::string(width - text.size(), ' ');
}

} // namespace relperf::str
