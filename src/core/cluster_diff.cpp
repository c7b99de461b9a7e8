#include "core/cluster_diff.hpp"

#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

namespace relperf::core {

namespace {

/// name -> 1-based rank index, for linear-time lookups over large
/// clusterings (campaigns allow up to 65536 algorithms).
std::unordered_map<std::string, int> rank_index(const FinalClusters& clusters) {
    std::unordered_map<std::string, int> index;
    index.reserve(clusters.algorithms.size());
    for (std::size_t i = 0; i < clusters.algorithms.size(); ++i) {
        index.emplace(clusters.algorithms[i], clusters.final_rank[i]);
    }
    return index;
}

[[noreturn]] void fail_at(const std::string& source, std::size_t line_number,
                          const std::string& message) {
    throw Error(str::format("%s:%zu: %s", source.c_str(), line_number,
                            message.c_str()));
}

bool is_skippable(const std::string& line) {
    const std::string_view t = str::trim(line);
    return t.empty() || t.front() == '#';
}

} // namespace

FinalClusters parse_final_clusters_csv(const std::string& content,
                                       const std::string& source) {
    std::istringstream in(content);
    std::string line;
    std::size_t line_number = 0;

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
        throw Error(source + ": no clustering rows (empty file?)");
    }

    const std::vector<std::string> header = support::csv_split_row(line);
    std::size_t alg_col = header.size();
    std::size_t rank_col = header.size();
    for (std::size_t i = 0; i < header.size(); ++i) {
        if (header[i] == "algorithm") alg_col = i;
        if (header[i] == "final_cluster") rank_col = i;
    }
    if (alg_col == header.size() || rank_col == header.size()) {
        fail_at(source, line_number,
                "not a clustering CSV: header needs 'algorithm' and "
                "'final_cluster' columns, got '" + line + "'");
    }

    FinalClusters out;
    std::unordered_map<std::string, int> seen;
    while (std::getline(in, line)) {
        ++line_number;
        if (is_skippable(line)) continue;
        const std::vector<std::string> fields = support::csv_split_row(line);
        if (fields.size() != header.size()) {
            fail_at(source, line_number,
                    str::format("row has %zu fields, header has %zu",
                                fields.size(), header.size()));
        }
        const std::string& name = fields[alg_col];
        if (name.empty()) fail_at(source, line_number, "empty algorithm name");
        std::size_t parsed = 0;
        try {
            parsed = str::parse_size(fields[rank_col], "final_cluster");
        } catch (const Error& e) {
            fail_at(source, line_number, e.what());
        }
        // Ranks are ints: a value past INT_MAX must not wrap to a valid rank.
        if (parsed == 0 ||
            parsed > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
            fail_at(source, line_number,
                    "final_cluster must be a positive rank, got '" +
                        fields[rank_col] + "'");
        }
        const int rank = static_cast<int>(parsed);
        const auto [it, inserted] = seen.emplace(name, rank);
        if (inserted) {
            out.algorithms.push_back(name);
            out.final_rank.push_back(rank);
        } else if (it->second != rank) {
            fail_at(source, line_number,
                    str::format("algorithm %s has conflicting final clusters "
                                "%d and %d",
                                name.c_str(), it->second, rank));
        }
    }
    if (out.algorithms.empty()) {
        throw Error(source + ": no clustering rows after the header");
    }
    return out;
}

FinalClusters read_final_clusters_csv(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw Error("read_final_clusters_csv: cannot open '" + path + "'");
    }
    std::ostringstream content;
    content << in.rdbuf();
    return parse_final_clusters_csv(content.str(), path);
}

ClusterDiff diff_clusterings(const FinalClusters& old_clusters,
                             const FinalClusters& new_clusters) {
    ClusterDiff diff;
    const std::unordered_map<std::string, int> old_ranks =
        rank_index(old_clusters);
    const std::unordered_map<std::string, int> new_ranks =
        rank_index(new_clusters);
    const auto lookup = [](const std::unordered_map<std::string, int>& index,
                           const std::string& name) {
        const auto it = index.find(name);
        return it == index.end() ? 0 : it->second;
    };

    for (std::size_t i = 0; i < old_clusters.algorithms.size(); ++i) {
        const std::string& name = old_clusters.algorithms[i];
        const int new_rank = lookup(new_ranks, name);
        if (new_rank == 0) {
            diff.only_in_old.push_back(name);
        } else if (new_rank != old_clusters.final_rank[i]) {
            diff.moved.push_back(
                ClusterMove{name, old_clusters.final_rank[i], new_rank});
        }
    }
    for (const std::string& name : new_clusters.algorithms) {
        if (lookup(old_ranks, name) == 0) diff.only_in_new.push_back(name);
    }

    // Splits/merges are views over the moves: an old cluster whose common
    // algorithms now land in several new clusters split; a new cluster
    // receiving common algorithms from several old clusters merged.
    std::map<int, std::set<int>> old_to_new;
    std::map<int, std::set<int>> new_to_old;
    for (std::size_t i = 0; i < old_clusters.algorithms.size(); ++i) {
        const int new_rank = lookup(new_ranks, old_clusters.algorithms[i]);
        if (new_rank == 0) continue;
        old_to_new[old_clusters.final_rank[i]].insert(new_rank);
        new_to_old[new_rank].insert(old_clusters.final_rank[i]);
    }
    for (const auto& [rank, targets] : old_to_new) {
        if (targets.size() > 1) {
            diff.splits.push_back(
                ClusterRegroup{rank, {targets.begin(), targets.end()}});
        }
    }
    for (const auto& [rank, sources] : new_to_old) {
        if (sources.size() > 1) {
            diff.merges.push_back(
                ClusterRegroup{rank, {sources.begin(), sources.end()}});
        }
    }
    return diff;
}

namespace {

std::string rank_list(const std::vector<int>& ranks) {
    std::vector<std::string> parts;
    parts.reserve(ranks.size());
    for (const int r : ranks) parts.push_back("C" + std::to_string(r));
    return str::join(parts, ", ");
}

} // namespace

std::string render_cluster_diff(const ClusterDiff& diff) {
    if (diff.identical()) {
        return "clusterings are identical (same algorithms, same "
               "performance classes)\n";
    }
    std::ostringstream out;
    for (const ClusterMove& move : diff.moved) {
        out << "moved: " << move.algorithm << " C" << move.old_rank << " -> C"
            << move.new_rank << '\n';
    }
    for (const ClusterRegroup& split : diff.splits) {
        out << "split: old C" << split.rank << " -> {" << rank_list(split.ranks)
            << "}\n";
    }
    for (const ClusterRegroup& merge : diff.merges) {
        out << "merged: new C" << merge.rank << " <- {" << rank_list(merge.ranks)
            << "}\n";
    }
    for (const std::string& name : diff.only_in_old) {
        out << "only in old: " << name << '\n';
    }
    for (const std::string& name : diff.only_in_new) {
        out << "only in new: " << name << '\n';
    }
    return out.str();
}

} // namespace relperf::core
