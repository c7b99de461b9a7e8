#include "campaign/shard_io.hpp"

#include "core/io.hpp"
#include "obs/provenance.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <glob.h>
#include <unistd.h>
#define RELPERF_HAVE_POSIX 1
#else
#define RELPERF_HAVE_POSIX 0
#endif

namespace relperf::campaign {

std::string host_name() {
#if RELPERF_HAVE_POSIX
    char buf[256] = {};
    if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
        return buf;
    }
#endif
    return "unknown";
}

ShardManifest shard_manifest(const CampaignSpec& spec, std::size_t shard_index,
                             std::size_t shard_count) {
    ShardManifest m;
    m.spec_hash = spec.hash();
    m.shard_index = shard_index;
    m.shard_count = shard_count;
    m.host = host_name();
    m.plan = spec.entries();
    // The provenance record is a pure function of build + host + spec, so
    // attaching it keeps shard files byte-identical with obs on or off.
    for (const obs::ProvenanceEntry& e : obs::provenance()) {
        m.provenance.emplace_back(e.key, e.value);
    }
    return m;
}

void write_shard_csv(const ShardResult& shard, const std::string& path) {
    RELPERF_REQUIRE(!shard.measurements.empty(),
                    "write_shard_csv: shard has no measurements");
    // A manifest whose declared per-algorithm counts disagree with the
    // measurements would persist a lie — reject it before touching the
    // file, mirroring the read-side truncation check.
    if (!shard.manifest.samples_per_algorithm.empty()) {
        RELPERF_REQUIRE(shard.manifest.samples_per_algorithm.size() ==
                            shard.measurements.size(),
                        "write_shard_csv: manifest declares a different "
                        "number of per-algorithm counts than the shard holds "
                        "algorithms");
        for (std::size_t i = 0; i < shard.measurements.size(); ++i) {
            RELPERF_REQUIRE(shard.manifest.samples_per_algorithm[i] ==
                                shard.measurements.samples(i).size(),
                            "write_shard_csv: manifest sample count for '" +
                                shard.measurements.name(i) +
                                "' disagrees with its measurement rows");
        }
    }
    std::ofstream out(path);
    if (!out) {
        throw Error("write_shard_csv: cannot open '" + path + "'");
    }
    const ShardManifest& m = shard.manifest;
    out << "# relperf-shard v1\n";
    out << "# spec_hash = " << str::format("%016llx",
                                           static_cast<unsigned long long>(
                                               m.spec_hash))
        << '\n';
    out << "# shard_index = " << m.shard_index << '\n';
    out << "# shard_count = " << m.shard_count << '\n';
    out << "# host = " << m.host << '\n';
    // Informational, like host. Values are sanitized by the obs layer
    // (never contain ';', '=' or newlines); skip any that slip through so
    // the single-line encoding stays parseable.
    if (!m.provenance.empty()) {
        std::vector<std::string> facts;
        facts.reserve(m.provenance.size());
        for (const auto& [key, value] : m.provenance) {
            if (key.find_first_of("=;\n") != std::string::npos ||
                value.find_first_of("=;\n") != std::string::npos) {
                continue;
            }
            facts.push_back(key + "=" + value);
        }
        if (!facts.empty()) {
            out << "# provenance = " << str::join(facts, ";") << '\n';
        }
    }
    bool adaptive = false;
    for (const auto& [key, value] : m.plan) {
        out << "# " << key << " = " << value << '\n';
        adaptive = adaptive || key == "adaptive_min_measurements";
    }
    if (!m.stopset_rounds.empty()) {
        out << "# stopset_rounds = " << str::format_size_list(m.stopset_rounds)
            << '\n';
    }
    // An adaptive plan declares the counts early stopping decided, so a
    // reader can check the rows against them. They are the rows' own counts
    // (any declared ones were checked equal above).
    if (adaptive) {
        std::vector<std::size_t> counts;
        for (std::size_t i = 0; i < shard.measurements.size(); ++i) {
            counts.push_back(shard.measurements.samples(i).size());
        }
        out << "# samples_per_algorithm = " << str::format_size_list(counts)
            << '\n';
    }
    out << "algorithm,measurement_index,seconds\n";
    for (std::size_t i = 0; i < shard.measurements.size(); ++i) {
        const auto samples = shard.measurements.samples(i);
        const std::string name =
            support::csv_escape(shard.measurements.name(i));
        for (std::size_t k = 0; k < samples.size(); ++k) {
            out << name << ',' << k << ','
                << str::format("%.17g", samples[k]) << '\n';
        }
    }
    if (!out) {
        throw Error("write_shard_csv: failed writing '" + path + "'");
    }
}

ShardResult read_shard_csv(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw Error("read_shard_csv: cannot open '" + path + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();

    // Manifest: `# key = value` comment lines before the CSV header.
    ShardResult out;
    CampaignSpec plan; // scratch target of the plan entries' set() checks
    std::set<std::string> seen;
    std::istringstream lines(content);
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(lines, line)) {
        ++line_number;
        if (line_number == 1 && str::starts_with(line, "\xEF\xBB\xBF")) {
            line.erase(0, 3);
        }
        const std::string_view trimmed = str::trim(line);
        if (trimmed.empty()) continue;
        if (trimmed.front() != '#') break; // CSV part begins
        const std::string_view body = str::trim(trimmed.substr(1));
        const std::size_t eq = body.find('=');
        if (eq == std::string_view::npos) continue; // plain comment
        const std::string key(str::trim(body.substr(0, eq)));
        const std::string value(str::trim(body.substr(eq + 1)));
        const auto fail = [&](const std::string& message) -> void {
            throw Error(str::format("%s:%zu: %s", path.c_str(), line_number,
                                    message.c_str()));
        };
        if (!key.empty() && !seen.insert(key).second) {
            fail("duplicate manifest key '" + key + "'");
        }
        try {
            if (key == "spec_hash") {
                out.manifest.spec_hash = str::parse_u64("0x" + value, key);
            } else if (key == "shard_index") {
                out.manifest.shard_index = str::parse_size(value, key);
            } else if (key == "shard_count") {
                out.manifest.shard_count = str::parse_size(value, key);
            } else if (key == "host") {
                out.manifest.host = value;
            } else if (key == "stopset_rounds") {
                // Cumulative counts may legitimately start at 0 (a first
                // round that froze nobody), so plain parse_size_list.
                out.manifest.stopset_rounds = str::parse_size_list(value, key);
            } else if (key == "samples_per_algorithm") {
                out.manifest.samples_per_algorithm =
                    str::parse_size_list(value, key);
            } else if (key == "provenance") {
                for (const std::string& fact : str::split(value, ';')) {
                    const std::size_t sep = fact.find('=');
                    if (sep == std::string::npos) continue;
                    out.manifest.provenance.emplace_back(
                        std::string(str::trim(fact.substr(0, sep))),
                        std::string(str::trim(fact.substr(sep + 1))));
                }
            } else if (plan.set(key, value)) {
                // A plan entry, its value checked by the spec's own setter.
                out.manifest.plan.emplace_back(key, value);
            }
            // Unknown keys are ignored: forward compatibility for future
            // manifest fields.
        } catch (const Error& e) {
            fail(e.what());
        }
    }

    for (const char* required : {"spec_hash", "shard_index", "shard_count"}) {
        if (!seen.count(required)) {
            throw Error(path + ": not a relperf shard file (missing '# " +
                        required + " = ...' manifest line)");
        }
    }
    if (out.manifest.shard_index >= out.manifest.shard_count) {
        throw Error(str::format("%s: manifest shard_index %zu must be below "
                                "shard_count %zu",
                                path.c_str(), out.manifest.shard_index,
                                out.manifest.shard_count));
    }

    // The measurement rows (comments are skipped by the core parser).
    out.measurements = core::parse_measurements_csv(content, path);

    // An adaptive manifest declares its per-algorithm counts; the rows must
    // agree, or the file was truncated or edited after the shard ran.
    const std::vector<std::size_t>& declared =
        out.manifest.samples_per_algorithm;
    if (!declared.empty()) {
        if (declared.size() != out.measurements.size()) {
            throw Error(str::format(
                "%s: manifest declares %zu per-algorithm sample counts but "
                "the file holds %zu algorithms",
                path.c_str(), declared.size(), out.measurements.size()));
        }
        for (std::size_t i = 0; i < declared.size(); ++i) {
            const std::size_t rows = out.measurements.samples(i).size();
            if (rows != declared[i]) {
                throw Error(str::format(
                    "%s: algorithm %s has %zu measurement rows, manifest "
                    "declares %zu — the file is truncated or was edited",
                    path.c_str(), out.measurements.name(i).c_str(), rows,
                    declared[i]));
            }
        }
    }
    return out;
}

std::vector<std::string> expand_shard_pattern(const std::string& pattern) {
    RELPERF_REQUIRE(!str::trim(pattern).empty(),
                    "expand_shard_pattern: empty pattern");
    std::vector<std::string> paths;
    if (pattern.find_first_of("*?[") != std::string::npos) {
#if RELPERF_HAVE_POSIX
        glob_t results{};
        const int rc = glob(pattern.c_str(), 0, nullptr, &results);
        if (rc == 0) {
            for (std::size_t i = 0; i < results.gl_pathc; ++i) {
                paths.emplace_back(results.gl_pathv[i]);
            }
        }
        globfree(&results);
        if (rc != 0 && rc != GLOB_NOMATCH) {
            throw Error("expand_shard_pattern: glob failed on '" + pattern +
                        "'");
        }
        if (paths.empty()) {
            throw Error("expand_shard_pattern: no files match '" + pattern +
                        "'");
        }
        std::sort(paths.begin(), paths.end());
        return paths;
#else
        throw Error("expand_shard_pattern: glob patterns are not supported "
                    "on this platform; pass a comma-separated list of shard "
                    "files instead of '" + pattern + "'");
#endif
    }
    for (const std::string& field : str::split(pattern, ',')) {
        const std::string path(str::trim(field));
        if (!path.empty()) paths.push_back(path);
    }
    if (paths.empty()) {
        throw Error("expand_shard_pattern: no paths in '" + pattern + "'");
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace relperf::campaign
