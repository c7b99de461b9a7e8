//! The stopping rule in isolation, driven by hand-built clusterings (the
//! fixture fills final_assignment, clusters, the memberships index that
//! score_of reads, and repetitions):
//!
//!  * the stability rule (confidence 0) replicates the original engine
//!    bookkeeping — the first clustering only seeds the previous-rank state,
//!    the counter resets on any membership change, and stopped algorithms
//!    are skipped;
//!  * the confidence rule never stops on the first clustering, demands a
//!    class repeat plus a significant class-vs-runner-up margin, declines
//!    when Rep is unknown, tightens monotonically with the confidence level,
//!    and ignores stability_rounds;
//!  * the constructor picks the rule from the confidence and rejects
//!    out-of-range knobs.

#include "core/stopping_rule.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

namespace core = relperf::core;

namespace {

/// Builds a clustering from per-algorithm (rank, score) membership lists,
/// each in ascending rank order. The final assignment is the max-score rank
/// with cumulated better-rank scores, like the real clusterer's
/// unique-assignment rule.
core::Clustering make_clustering(
    const std::vector<std::vector<std::pair<int, double>>>& memberships,
    std::size_t repetitions) {
    core::Clustering clustering;
    clustering.repetitions = repetitions;
    int max_rank = 0;
    for (const auto& ranks : memberships) {
        for (const auto& [rank, score] : ranks) max_rank = std::max(max_rank, rank);
    }
    clustering.clusters.resize(static_cast<std::size_t>(max_rank));
    for (std::size_t alg = 0; alg < memberships.size(); ++alg) {
        int best_rank = 0;
        double best_score = -1.0;
        double cumulated = 0.0;
        clustering.memberships.emplace_back();
        for (const auto& [rank, score] : memberships[alg]) {
            clustering.clusters[static_cast<std::size_t>(rank - 1)].push_back(
                {alg, score});
            clustering.memberships.back().push_back({rank, score});
            cumulated += score;
            if (score > best_score) {
                best_score = score;
                best_rank = rank;
            }
        }
        clustering.final_assignment.push_back({alg, best_rank, cumulated});
    }
    return clustering;
}

/// All algorithms still measuring.
std::vector<bool> none_stopped(std::size_t n) {
    return std::vector<bool>(n, false);
}

} // namespace

TEST(StabilityRule, FirstObserveOnlySeeds) {
    core::StoppingRule rule(1, 0.0);
    const core::Clustering c = make_clustering({{{1, 1.0}}, {{2, 1.0}}}, 10);
    rule.observe(c, none_stopped(2));
    // One clustering seen: no membership has been *repeated* yet.
    EXPECT_FALSE(rule.should_stop(0));
    EXPECT_FALSE(rule.should_stop(1));
    rule.observe(c, none_stopped(2));
    EXPECT_TRUE(rule.should_stop(0));
    EXPECT_TRUE(rule.should_stop(1));
}

TEST(StabilityRule, CounterResetsOnMembershipChange) {
    core::StoppingRule rule(2, 0.0);
    const core::Clustering ab = make_clustering({{{1, 1.0}}, {{2, 1.0}}}, 10);
    const core::Clustering ba = make_clustering({{{2, 1.0}}, {{1, 1.0}}}, 10);
    rule.observe(ab, none_stopped(2)); // seed
    rule.observe(ab, none_stopped(2)); // stable x1
    EXPECT_FALSE(rule.should_stop(0));
    rule.observe(ba, none_stopped(2)); // membership flipped: reset
    EXPECT_FALSE(rule.should_stop(0));
    rule.observe(ba, none_stopped(2)); // stable x1 again
    EXPECT_FALSE(rule.should_stop(0));
    rule.observe(ba, none_stopped(2)); // stable x2
    EXPECT_TRUE(rule.should_stop(0));
    EXPECT_TRUE(rule.should_stop(1));
}

TEST(StabilityRule, SkipsStoppedAlgorithms) {
    core::StoppingRule rule(1, 0.0);
    const core::Clustering ab = make_clustering({{{1, 1.0}}, {{2, 1.0}}}, 10);
    rule.observe(ab, none_stopped(2));
    rule.observe(ab, none_stopped(2));
    ASSERT_TRUE(rule.should_stop(1));
    // Algorithm 1 stopped; its verdict is never read again and later
    // observes must keep serving algorithm 0.
    rule.observe(ab, {false, true});
    EXPECT_TRUE(rule.should_stop(0));
}

TEST(StabilityRule, RejectsBadConstructionAndMismatchedSizes) {
    EXPECT_THROW(core::StoppingRule(0, 0.0), relperf::InvalidArgument);
    EXPECT_THROW(core::StoppingRule(0, 0.95), relperf::InvalidArgument);
    core::StoppingRule rule(2, 0.0);
    const core::Clustering c = make_clustering({{{1, 1.0}}, {{2, 1.0}}}, 10);
    EXPECT_THROW(rule.observe(c, none_stopped(3)), relperf::InvalidArgument);
    rule.observe(c, none_stopped(2));
    const core::Clustering bigger =
        make_clustering({{{1, 1.0}}, {{2, 1.0}}, {{3, 1.0}}}, 10);
    EXPECT_THROW(rule.observe(bigger, none_stopped(3)),
                 relperf::InvalidArgument);
}

TEST(ConfidenceRule, ValidatesConfidenceAndResolvesZ) {
    EXPECT_THROW(core::StoppingRule(2, 0.5), relperf::InvalidArgument);
    EXPECT_THROW(core::StoppingRule(2, 1.0), relperf::InvalidArgument);
    EXPECT_THROW(core::StoppingRule(2, 0.4), relperf::InvalidArgument);
    EXPECT_THROW(core::StoppingRule(2, -0.9), relperf::InvalidArgument);
    const core::StoppingRule rule(2, 0.95);
    EXPECT_STREQ(rule.name(), "confidence");
    EXPECT_NEAR(rule.z(), 1.6448536269514722, 1e-9);
    // Confidence 0 selects the stability rule, which has no critical value.
    const core::StoppingRule stability(2, 0.0);
    EXPECT_STREQ(stability.name(), "stability");
    EXPECT_EQ(stability.z(), 0.0);
}

TEST(ConfidenceRule, NeverStopsOnTheFirstClustering) {
    core::StoppingRule rule(2, 0.95);
    // Unanimous membership — as decisive as a clustering gets.
    const core::Clustering c = make_clustering({{{1, 1.0}}, {{2, 1.0}}}, 100);
    rule.observe(c, none_stopped(2));
    EXPECT_FALSE(rule.should_stop(0));
    EXPECT_FALSE(rule.should_stop(1));
    rule.observe(c, none_stopped(2));
    // Class repeated, margin 1 with zero variance: stop.
    EXPECT_TRUE(rule.should_stop(0));
    EXPECT_TRUE(rule.should_stop(1));
}

TEST(ConfidenceRule, InsignificantMarginKeepsMeasuring) {
    core::StoppingRule rule(2, 0.95);
    // Rank 1 wins 55/45 over rank 2 across Rep = 20 repetitions: margin 0.1,
    // SE ~ 0.22 — nowhere near significant at 0.95.
    const core::Clustering c = make_clustering(
        {{{1, 0.55}, {2, 0.45}}, {{1, 0.45}, {2, 0.55}}}, 20);
    rule.observe(c, none_stopped(2));
    rule.observe(c, none_stopped(2));
    EXPECT_FALSE(rule.should_stop(0));
    EXPECT_FALSE(rule.should_stop(1));
}

TEST(ConfidenceRule, MembershipFlipBlocksStopping) {
    core::StoppingRule rule(2, 0.95);
    const core::Clustering ab = make_clustering({{{1, 1.0}}, {{2, 1.0}}}, 100);
    const core::Clustering ba = make_clustering({{{2, 1.0}}, {{1, 1.0}}}, 100);
    rule.observe(ab, none_stopped(2));
    rule.observe(ba, none_stopped(2)); // decisive, but the class changed
    EXPECT_FALSE(rule.should_stop(0));
    EXPECT_FALSE(rule.should_stop(1));
    rule.observe(ba, none_stopped(2)); // repeated now
    EXPECT_TRUE(rule.should_stop(0));
}

TEST(ConfidenceRule, UnknownRepetitionCountIsNotConfident) {
    core::StoppingRule rule(2, 0.95);
    const core::Clustering c = make_clustering({{{1, 1.0}}, {{2, 1.0}}}, 0);
    rule.observe(c, none_stopped(2));
    rule.observe(c, none_stopped(2));
    EXPECT_FALSE(rule.should_stop(0));
}

TEST(ConfidenceRule, HigherConfidenceIsMoreConservative) {
    // Rank 1 wins 60/40 over Rep = 100: margin 0.2, SE ~ 0.098. Significant
    // at z(0.8) = 0.84 but not at z(0.9999) = 3.72.
    const core::Clustering c = make_clustering(
        {{{1, 0.6}, {2, 0.4}}, {{1, 0.4}, {2, 0.6}}}, 100);
    core::StoppingRule loose(2, 0.8);
    loose.observe(c, none_stopped(2));
    loose.observe(c, none_stopped(2));
    EXPECT_TRUE(loose.should_stop(0));

    core::StoppingRule tight(2, 0.9999);
    tight.observe(c, none_stopped(2));
    tight.observe(c, none_stopped(2));
    EXPECT_FALSE(tight.should_stop(0));
}

TEST(ConfidenceRule, IgnoresStabilityRounds) {
    // One repeat of a unanimous class is enough under the confidence rule,
    // whatever stability_rounds says: only the stability rule counts to it.
    core::StoppingRule rule(5, 0.95);
    const core::Clustering c = make_clustering({{{1, 1.0}}, {{2, 1.0}}}, 100);
    rule.observe(c, none_stopped(2));
    EXPECT_FALSE(rule.should_stop(0));
    rule.observe(c, none_stopped(2));
    EXPECT_TRUE(rule.should_stop(0));
    EXPECT_TRUE(rule.should_stop(1));
}
