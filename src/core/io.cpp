#include "core/io.hpp"

#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace relperf::core {

namespace {

/// True for lines the parser ignores: blank (or CRLF-only) and `#` comments
/// (campaign shard files carry their manifest in comment lines).
bool is_skippable(const std::string& line) {
    const std::string_view t = str::trim(line);
    return t.empty() || t.front() == '#';
}

[[noreturn]] void fail_at(const std::string& source, std::size_t line_number,
                          const std::string& message) {
    throw Error(str::format("%s:%zu: %s", source.c_str(), line_number,
                            message.c_str()));
}

/// The one parser core, consuming any istream line by line. Both entry
/// points stream through here, so file ingestion holds a single line buffer
/// instead of a whole-file copy (plus its ostringstream duplicate, as the
/// pre-streaming read_measurements_csv did) — and the two paths cannot
/// diverge in results or error messages (parity-tested, errors included).
MeasurementSet parse_measurements_stream(std::istream& in,
                                         const std::string& source) {
    std::string line;
    std::size_t line_number = 0;

    // Header: first non-blank, non-comment line (UTF-8 BOM tolerated).
    bool have_header = false;
    while (std::getline(in, line)) {
        ++line_number;
        if (line_number == 1 && str::starts_with(line, "\xEF\xBB\xBF")) {
            line.erase(0, 3);
        }
        if (is_skippable(line)) continue;
        have_header = true;
        break;
    }
    if (!have_header) {
        throw Error(source + ": no measurement rows (empty file?)");
    }
    const std::vector<std::string> header = support::csv_split_row(line);
    if (header.size() != 3 || header[0] != "algorithm" ||
        header[1] != "measurement_index" || header[2] != "seconds") {
        fail_at(source, line_number,
                "expected header 'algorithm,measurement_index,seconds', got '" +
                    line + "'");
    }

    // Preserve first-seen algorithm order. A repeated (algorithm, index)
    // row would enter the sample twice, so it is an error.
    std::vector<std::string> order;
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, std::set<std::size_t>> indices;
    while (std::getline(in, line)) {
        ++line_number;
        if (is_skippable(line)) continue;
        const std::vector<std::string> fields = support::csv_split_row(line);
        if (fields.size() != 3) {
            fail_at(source, line_number,
                    str::format("row has %zu fields, expected 3",
                                fields.size()));
        }
        const std::string& name = fields[0];
        if (name.empty()) {
            fail_at(source, line_number, "empty algorithm name");
        }
        std::size_t index = 0;
        try {
            index = str::parse_size(fields[1], "measurement_index");
        } catch (const InvalidArgument& e) {
            fail_at(source, line_number, e.what());
        }
        errno = 0;
        char* end = nullptr;
        const double value = std::strtod(fields[2].c_str(), &end);
        if (fields[2].empty() || end == nullptr || *end != '\0' ||
            errno == ERANGE || !std::isfinite(value)) {
            fail_at(source, line_number,
                    "bad seconds value '" + fields[2] + "'");
        }
        if (value < 0.0) {
            fail_at(source, line_number,
                    "negative seconds value '" + fields[2] + "'");
        }
        if (!indices[name].insert(index).second) {
            fail_at(source, line_number,
                    str::format("duplicate measurement_index %zu for "
                                "algorithm '%s'",
                                index, name.c_str()));
        }
        if (!samples.count(name)) order.push_back(name);
        samples[name].push_back(value);
    }
    if (order.empty()) {
        throw Error(source + ": no measurement rows after the header");
    }

    MeasurementSet set;
    for (const std::string& name : order) {
        set.add(name, std::move(samples[name]));
    }
    return set;
}

} // namespace

MeasurementSet parse_measurements_csv(const std::string& content,
                                      const std::string& source) {
    std::istringstream in(content);
    return parse_measurements_stream(in, source);
}

MeasurementSet read_measurements_csv(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw Error("read_measurements_csv: cannot open '" + path + "'");
    }
    return parse_measurements_stream(in, path);
}

} // namespace relperf::core
