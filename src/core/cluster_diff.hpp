#pragma once
//! \file cluster_diff.hpp
//! Clustering regression diff — compares two clustering CSVs (the files
//! core::write_clustering_csv produces) the way the paper compares
//! algorithms: by performance-class *membership*. CI runs this between a
//! commit's campaign clustering and a committed golden file, so a change
//! that silently moves an algorithm into a different performance class
//! fails the build instead of drifting past a human eyeballing score
//! columns.
//!
//! The comparison is over final cluster assignments (the paper's unique
//! assignment): relative scores may wiggle run to run, membership should
//! not. Ranks are semantic (1 = fastest class), so an algorithm whose final
//! rank number changes has *moved* even if its co-members came along.

#include <string>
#include <vector>

namespace relperf::core {

/// Final cluster membership of every algorithm in one clustering CSV.
struct FinalClusters {
    std::vector<std::string> algorithms; ///< First-seen order.
    std::vector<int> final_rank;         ///< Parallel to algorithms; 1-based.
};

/// Parses the `cluster,algorithm,relative_score,final_cluster,final_score`
/// CSV. Column positions are located by header name, so extra columns are
/// tolerated. An algorithm may appear once per cluster membership; its
/// final_cluster must agree across rows. Throws relperf::Error naming the
/// source (and line) on malformed content.
[[nodiscard]] FinalClusters parse_final_clusters_csv(
    const std::string& content, const std::string& source = "<string>");
[[nodiscard]] FinalClusters read_final_clusters_csv(const std::string& path);

/// One algorithm whose final performance class changed.
struct ClusterMove {
    std::string algorithm;
    int old_rank = 0;
    int new_rank = 0;
};

/// One old cluster whose members now span several new clusters (split), or
/// one new cluster absorbing members of several old clusters (merge).
struct ClusterRegroup {
    int rank = 0;            ///< The cluster that split (old) / merged (new).
    std::vector<int> ranks;  ///< The clusters its members map to/from.
};

/// Membership difference between two clusterings.
struct ClusterDiff {
    std::vector<std::string> only_in_old; ///< Algorithms missing from new.
    std::vector<std::string> only_in_new; ///< Algorithms missing from old.
    std::vector<ClusterMove> moved;       ///< Common algorithms that changed class.
    std::vector<ClusterRegroup> splits;   ///< Old clusters torn apart.
    std::vector<ClusterRegroup> merges;   ///< New clusters glued together.

    /// True when both files cluster the same algorithms identically.
    [[nodiscard]] bool identical() const noexcept {
        return only_in_old.empty() && only_in_new.empty() && moved.empty();
    }
};

/// Computes the membership diff old -> new.
[[nodiscard]] ClusterDiff diff_clusterings(const FinalClusters& old_clusters,
                                           const FinalClusters& new_clusters);

/// Human-readable report (one line per change; "clusterings are identical"
/// when there is nothing to report).
[[nodiscard]] std::string render_cluster_diff(const ClusterDiff& diff);

} // namespace relperf::core
