#include "core/cluster_diff.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

namespace core = relperf::core;

namespace {

const char* kGolden =
    "cluster,algorithm,relative_score,final_cluster,final_score\n"
    "1,algDDD,0.9,1,0.9\n"
    "1,algDDA,0.6,2,0.9\n" // appears in C1 with low score, final C2
    "2,algDDA,0.3,2,0.9\n"
    "2,algDAD,0.8,2,0.8\n"
    "3,algAAA,1,3,1\n";

} // namespace

TEST(FinalClusters, ParsesMembershipFromClusteringCsv) {
    const core::FinalClusters parsed =
        core::parse_final_clusters_csv(kGolden, "golden");
    ASSERT_EQ(parsed.algorithms.size(), 4u);
    EXPECT_EQ(parsed.rank_of("algDDD"), 1);
    EXPECT_EQ(parsed.rank_of("algDDA"), 2);
    EXPECT_EQ(parsed.rank_of("algDAD"), 2);
    EXPECT_EQ(parsed.rank_of("algAAA"), 3);
    EXPECT_EQ(parsed.rank_of("algXXX"), 0);
}

TEST(FinalClusters, QuotedVariantNamesRoundTrip) {
    const core::FinalClusters parsed = core::parse_final_clusters_csv(
        "cluster,algorithm,relative_score,final_cluster,final_score\n"
        "1,\"algD:portable,A:blas\",1,1,1\n"
        "2,\"algD:blas,A:blas\",1,2,1\n",
        "quoted");
    EXPECT_EQ(parsed.rank_of("algD:portable,A:blas"), 1);
    EXPECT_EQ(parsed.rank_of("algD:blas,A:blas"), 2);
}

TEST(FinalClusters, MalformedContentThrows) {
    EXPECT_THROW((void)core::parse_final_clusters_csv("", "empty"),
                 relperf::Error);
    EXPECT_THROW((void)core::parse_final_clusters_csv("a,b,c\n1,2,3\n", "bad"),
                 relperf::Error);
    // Conflicting final clusters for one algorithm.
    EXPECT_THROW((void)core::parse_final_clusters_csv(
                     "cluster,algorithm,relative_score,final_cluster,"
                     "final_score\n"
                     "1,algDDD,0.5,1,0.5\n"
                     "2,algDDD,0.5,2,0.5\n",
                     "conflict"),
                 relperf::Error);
    // Zero rank.
    EXPECT_THROW((void)core::parse_final_clusters_csv(
                     "cluster,algorithm,relative_score,final_cluster,"
                     "final_score\n"
                     "1,algDDD,0.5,0,0.5\n",
                     "zero"),
                 relperf::Error);
    // A rank past INT_MAX must not wrap (2^32 + 1 would read as rank 1).
    EXPECT_THROW((void)core::parse_final_clusters_csv(
                     "cluster,algorithm,relative_score,final_cluster,"
                     "final_score\n"
                     "1,algDDD,0.5,4294967297,0.5\n",
                     "huge"),
                 relperf::Error);
    EXPECT_THROW((void)core::read_final_clusters_csv("/nonexistent/x.csv"),
                 relperf::Error);
}

TEST(ClusterDiff, IdenticalClusteringsDiffEmpty) {
    const core::FinalClusters a = core::parse_final_clusters_csv(kGolden);
    const core::ClusterDiff diff = core::diff_clusterings(a, a);
    EXPECT_TRUE(diff.identical());
    EXPECT_NE(core::render_cluster_diff(diff).find("identical"),
              std::string::npos);
}

TEST(ClusterDiff, DetectsMovesSplitsAndMerges) {
    const core::FinalClusters old_clusters =
        core::parse_final_clusters_csv(kGolden);
    // algDAD moves C2 -> C3: C2 splits into {C2, C3}; C3 merges {C2, C3}.
    core::FinalClusters new_clusters = old_clusters;
    for (std::size_t i = 0; i < new_clusters.algorithms.size(); ++i) {
        if (new_clusters.algorithms[i] == "algDAD") {
            new_clusters.final_rank[i] = 3;
        }
    }
    const core::ClusterDiff diff =
        core::diff_clusterings(old_clusters, new_clusters);
    EXPECT_FALSE(diff.identical());
    ASSERT_EQ(diff.moved.size(), 1u);
    EXPECT_EQ(diff.moved[0].algorithm, "algDAD");
    EXPECT_EQ(diff.moved[0].old_rank, 2);
    EXPECT_EQ(diff.moved[0].new_rank, 3);
    ASSERT_EQ(diff.splits.size(), 1u);
    EXPECT_EQ(diff.splits[0].rank, 2);
    EXPECT_EQ(diff.splits[0].ranks, (std::vector<int>{2, 3}));
    ASSERT_EQ(diff.merges.size(), 1u);
    EXPECT_EQ(diff.merges[0].rank, 3);
    EXPECT_EQ(diff.merges[0].ranks, (std::vector<int>{2, 3}));

    const std::string report = core::render_cluster_diff(diff);
    EXPECT_NE(report.find("moved: algDAD C2 -> C3"), std::string::npos);
    EXPECT_NE(report.find("split: old C2"), std::string::npos);
    EXPECT_NE(report.find("merged: new C3"), std::string::npos);
}

TEST(ClusterDiff, DetectsMembershipChanges) {
    const core::FinalClusters old_clusters =
        core::parse_final_clusters_csv(kGolden);
    core::FinalClusters new_clusters = old_clusters;
    new_clusters.algorithms.push_back("algADA");
    new_clusters.final_rank.push_back(2);
    // Drop algAAA.
    new_clusters.algorithms.erase(new_clusters.algorithms.begin() + 3);
    new_clusters.final_rank.erase(new_clusters.final_rank.begin() + 3);

    const core::ClusterDiff diff =
        core::diff_clusterings(old_clusters, new_clusters);
    EXPECT_FALSE(diff.identical());
    ASSERT_EQ(diff.only_in_old.size(), 1u);
    EXPECT_EQ(diff.only_in_old[0], "algAAA");
    ASSERT_EQ(diff.only_in_new.size(), 1u);
    EXPECT_EQ(diff.only_in_new[0], "algADA");
    EXPECT_TRUE(diff.moved.empty());
}

TEST(ClusterDiff, RankRenumberingCountsAsMovement) {
    // The paper's ranks are semantic (1 = fastest): shifting every algorithm
    // down one class is a real change even though co-membership held.
    const core::FinalClusters old_clusters =
        core::parse_final_clusters_csv(kGolden);
    core::FinalClusters new_clusters = old_clusters;
    for (int& rank : new_clusters.final_rank) ++rank;
    const core::ClusterDiff diff =
        core::diff_clusterings(old_clusters, new_clusters);
    EXPECT_FALSE(diff.identical());
    EXPECT_EQ(diff.moved.size(), old_clusters.algorithms.size());
}
