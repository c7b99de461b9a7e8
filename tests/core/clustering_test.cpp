#include "core/clustering.hpp"

#include "campaign/campaign.hpp"
#include "core/bootstrap_comparator.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <string>

namespace core = relperf::core;
using core::Clustering;
using core::ClustererConfig;
using core::MeasurementSet;
using core::Ordering;
using core::RelativeClusterer;
using relperf::stats::Rng;

namespace {

/// Deterministic comparator: lower sample mean wins, relative tie band.
class MeanComparator final : public core::Comparator {
public:
    explicit MeanComparator(double tolerance = 0.02) : tolerance_(tolerance) {}

    Ordering compare(std::span<const double> a, std::span<const double> b,
                     Rng&) const override {
        const double ma = relperf::stats::mean(a);
        const double mb = relperf::stats::mean(b);
        if (std::fabs(ma - mb) <= tolerance_ * std::min(ma, mb)) {
            return Ordering::Equivalent;
        }
        return ma < mb ? Ordering::Better : Ordering::Worse;
    }

    std::string name() const override { return "mean-test"; }

private:
    double tolerance_;
};

/// Stochastic comparator for one designated borderline pair: returns
/// Equivalent with probability `flip_prob` for that pair, a deterministic
/// mean comparison otherwise. Reproduces the paper's "algAA vs algAD flips
/// once in every three comparisons" situation.
class FlipComparator final : public core::Comparator {
public:
    FlipComparator(std::span<const double> x, std::span<const double> y,
                   double flip_prob)
        : x_(x.begin(), x.end()), y_(y.begin(), y.end()), flip_prob_(flip_prob) {}

    Ordering compare(std::span<const double> a, std::span<const double> b,
                     Rng& rng) const override {
        if (is_pair(a, b) || is_pair(b, a)) {
            if (rng.bernoulli(flip_prob_)) return Ordering::Equivalent;
        }
        const double ma = relperf::stats::mean(a);
        const double mb = relperf::stats::mean(b);
        if (ma == mb) return Ordering::Equivalent;
        return ma < mb ? Ordering::Better : Ordering::Worse;
    }

    std::string name() const override { return "flip-test"; }

private:
    bool is_pair(std::span<const double> a, std::span<const double> b) const {
        return a.size() == x_.size() && std::equal(a.begin(), a.end(), x_.begin()) &&
               b.size() == y_.size() && std::equal(b.begin(), b.end(), y_.begin());
    }

    std::vector<double> x_;
    std::vector<double> y_;
    double flip_prob_;
};

/// The bootstrap comparator's verdict as its thresholded score(), which
/// tallies every round: what compare() must equal, though it settles.
class ThresholdedScore final : public core::Comparator {
public:
    explicit ThresholdedScore(const core::BootstrapComparator& inner)
        : inner_(inner) {}

    Ordering compare(std::span<const double> a, std::span<const double> b,
                     Rng& rng) const override {
        const double s = inner_.score(a, b, rng);
        const double t = inner_.config().decision_threshold;
        if (s > t) return Ordering::Better;
        if (s < -t) return Ordering::Worse;
        return Ordering::Equivalent;
    }

    std::string name() const override { return "thresholded-score"; }

private:
    const core::BootstrapComparator& inner_;
};

/// p algorithms with overlapping noisy distributions — enough class overlap
/// that the bootstrap comparator's stochastic outcomes split scores across
/// several ranks.
MeasurementSet overlapping_set(std::size_t p, std::uint64_t seed) {
    Rng rng(seed);
    MeasurementSet set;
    for (std::size_t i = 0; i < p; ++i) {
        const double base = 1.0 + 0.25 * static_cast<double>(i % 7);
        std::vector<double> samples;
        samples.reserve(5);
        for (int k = 0; k < 5; ++k) {
            samples.push_back(base * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)));
        }
        set.add("alg" + std::to_string(i), std::move(samples));
    }
    return set;
}

/// `pairs` tiers 30% apart, each holding two algorithms whose distributions
/// sit 3% apart with 5% noise: the bootstrap comparator calls each pair
/// differently from one repetition to the next.
MeasurementSet overlapping_pairs(std::size_t pairs, std::uint64_t seed) {
    Rng rng(seed);
    MeasurementSet set;
    for (std::size_t i = 0; i < 2 * pairs; ++i) {
        const double base = (1.0 + 0.3 * static_cast<double>(i / 2)) *
                            (i % 2 == 0 ? 1.0 : 1.03);
        std::vector<double> samples;
        samples.reserve(8);
        for (int k = 0; k < 8; ++k) {
            samples.push_back(base * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)));
        }
        set.add("alg" + std::to_string(i), std::move(samples));
    }
    return set;
}

/// Exact structural equality — every score compared with operator== (the
/// sparse path's bit-identity claim, not a tolerance check).
void expect_identical(const Clustering& a, const Clustering& b) {
    ASSERT_EQ(a.repetitions, b.repetitions);
    ASSERT_EQ(a.cluster_count(), b.cluster_count());
    for (std::size_t r = 0; r < a.clusters.size(); ++r) {
        ASSERT_EQ(a.clusters[r].size(), b.clusters[r].size());
        for (std::size_t i = 0; i < a.clusters[r].size(); ++i) {
            EXPECT_EQ(a.clusters[r][i].alg, b.clusters[r][i].alg);
            EXPECT_EQ(a.clusters[r][i].score, b.clusters[r][i].score);
        }
    }
    ASSERT_EQ(a.memberships.size(), b.memberships.size());
    for (std::size_t alg = 0; alg < a.memberships.size(); ++alg) {
        ASSERT_EQ(a.memberships[alg].size(), b.memberships[alg].size());
        for (std::size_t i = 0; i < a.memberships[alg].size(); ++i) {
            EXPECT_EQ(a.memberships[alg][i].rank, b.memberships[alg][i].rank);
            EXPECT_EQ(a.memberships[alg][i].score, b.memberships[alg][i].score);
        }
    }
    ASSERT_EQ(a.final_assignment.size(), b.final_assignment.size());
    for (std::size_t alg = 0; alg < a.final_assignment.size(); ++alg) {
        EXPECT_EQ(a.final_assignment[alg].alg, b.final_assignment[alg].alg);
        EXPECT_EQ(a.final_assignment[alg].rank, b.final_assignment[alg].rank);
        EXPECT_EQ(a.final_assignment[alg].score, b.final_assignment[alg].score);
    }
}

/// The dense oracle cluster() is tested against, built from public calls:
/// repetition r takes child stream r of the seed, shuffles the algorithm
/// order on it and sorts on the rest of the stream, as cluster() does, but
/// tallies into a dense p x p counts matrix instead of sparse rows (O(p^2)
/// memory, serial). Small p only.
Clustering cluster_dense(const core::Comparator& comparator,
                         const MeasurementSet& measurements,
                         const ClustererConfig& config) {
    const RelativeClusterer clusterer(comparator, config);
    const std::size_t p = measurements.size();
    std::vector<std::vector<std::size_t>> counts(p, std::vector<std::size_t>(p, 0));
    const Rng master(config.seed);
    for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
        Rng rng = master.child(rep);
        std::vector<std::size_t> order(p);
        std::iota(order.begin(), order.end(), std::size_t{0});
        rng.shuffle(order);
        const core::RankedSequence seq =
            clusterer.sort_once(measurements, std::move(order), rng);
        for (std::size_t pos = 0; pos < p; ++pos) {
            ++counts[seq.order[pos]][static_cast<std::size_t>(seq.ranks[pos] - 1)];
        }
    }
    core::RankTally tally(p);
    for (std::size_t alg = 0; alg < p; ++alg) {
        for (std::size_t r = 0; r < p; ++r) {
            if (counts[alg][r] > 0) {
                tally[alg].emplace_back(static_cast<int>(r + 1), counts[alg][r]);
            }
        }
    }
    return core::build_clustering(tally, config.repetitions);
}

/// The clustering of the CI plan (the `--campaign-init` defaults: 8
/// algorithms, N = 30, Rep = R = 100), whose clusters CSV is
/// ci/golden/campaign_clusters.csv.
const Clustering& ci_plan_clustering() {
    static const Clustering clustering =
        relperf::campaign::run_campaign(relperf::campaign::CampaignSpec{}, 1, 4)
            .clustering;
    return clustering;
}

/// A random valid tally: each of the p rows takes 1..min(p, Rep) distinct
/// ranks in [1, p] and splits Rep into that many positive counts.
core::RankTally random_tally(std::size_t p, std::size_t rep, Rng& rng) {
    core::RankTally tally(p);
    for (auto& row : tally) {
        const std::size_t k = 1 + rng.uniform_index(std::min(p, rep));
        std::vector<int> ranks(p);
        std::iota(ranks.begin(), ranks.end(), 1);
        rng.shuffle(ranks);
        ranks.resize(k);
        std::sort(ranks.begin(), ranks.end());
        std::vector<std::size_t> cuts = {0, rep};
        while (cuts.size() < k + 1) {
            const std::size_t cut = 1 + rng.uniform_index(rep - 1);
            if (std::find(cuts.begin(), cuts.end(), cut) == cuts.end()) {
                cuts.push_back(cut);
            }
        }
        std::sort(cuts.begin(), cuts.end());
        for (std::size_t i = 0; i < k; ++i) {
            row.emplace_back(ranks[i], cuts[i + 1] - cuts[i]);
        }
    }
    return tally;
}

MeasurementSet three_tier_set() {
    MeasurementSet set;
    set.add("fast", {1.00, 1.01, 0.99});
    set.add("fast2", {1.005, 1.0, 1.01});
    set.add("mid", {2.0, 2.02, 1.98});
    set.add("slow", {4.0, 4.04, 3.96});
    return set;
}

} // namespace

TEST(RelativeClusterer, DeterministicComparatorGivesUnitScores) {
    const MeanComparator cmp;
    const RelativeClusterer clusterer(cmp, ClustererConfig{50, 7});
    const Clustering result = clusterer.cluster(three_tier_set());

    ASSERT_EQ(result.cluster_count(), 3);
    EXPECT_DOUBLE_EQ(result.score_of(0, 1), 1.0); // fast
    EXPECT_DOUBLE_EQ(result.score_of(1, 1), 1.0); // fast2
    EXPECT_DOUBLE_EQ(result.score_of(2, 2), 1.0); // mid
    EXPECT_DOUBLE_EQ(result.score_of(3, 3), 1.0); // slow
    // No membership anywhere else.
    EXPECT_DOUBLE_EQ(result.score_of(2, 1), 0.0);
    EXPECT_DOUBLE_EQ(result.score_of(3, 2), 0.0);

    // Final assignment mirrors the unique ranks.
    EXPECT_EQ(result.final_rank(0), 1);
    EXPECT_EQ(result.final_rank(1), 1);
    EXPECT_EQ(result.final_rank(2), 2);
    EXPECT_EQ(result.final_rank(3), 3);
    for (const auto& fin : result.final_assignment) {
        EXPECT_DOUBLE_EQ(fin.score, 1.0);
    }
}

TEST(RelativeClusterer, ScoresPerAlgorithmSumToOne) {
    MeasurementSet set;
    set.add("a", {1.0, 1.1});
    set.add("b", {1.05, 1.12});
    set.add("c", {2.0, 2.1});
    const MeanComparator cmp(0.08);
    const RelativeClusterer clusterer(cmp, ClustererConfig{64, 3});
    const Clustering result = clusterer.cluster(set);

    for (std::size_t alg = 0; alg < set.size(); ++alg) {
        double total = 0.0;
        for (int r = 1; r <= result.cluster_count(); ++r) {
            total += result.score_of(alg, r);
        }
        EXPECT_NEAR(total, 1.0, 1e-12);
    }
}

TEST(RelativeClusterer, BorderlinePairSplitsAcrossClusters) {
    MeasurementSet set;
    set.add("algAD", {1.0, 1.0, 1.0});
    set.add("algAA", {1.2, 1.2, 1.2});
    set.add("algDD", {2.0, 2.0, 2.0});

    // AD vs AA equivalent ~1/3 of comparisons (paper Sec. III).
    const FlipComparator cmp(set.samples(0), set.samples(1), 1.0 / 3.0);
    const RelativeClusterer clusterer(cmp, ClustererConfig{300, 11});
    const Clustering result = clusterer.cluster(set);

    // algAD always rank 1.
    EXPECT_DOUBLE_EQ(result.score_of(0, 1), 1.0);
    // algAA splits between rank 1 (merged with AD) and rank 2.
    const double aa_r1 = result.score_of(1, 1);
    const double aa_r2 = result.score_of(1, 2);
    EXPECT_GT(aa_r1, 0.1);
    EXPECT_GT(aa_r2, 0.3);
    EXPECT_NEAR(aa_r1 + aa_r2, 1.0, 1e-12);
    // algDD lands in rank 2 or 3 depending on the AA merge.
    EXPECT_NEAR(result.score_of(2, 2) + result.score_of(2, 3), 1.0, 1e-12);
}

TEST(RelativeClusterer, FinalAssignmentCumulatesBetterRankScores) {
    // Reproduces the paper's algDA example numerically: when an algorithm
    // gets rank 2 in ~30% and rank 3 in ~60% and rank 4 in ~10% of the
    // repetitions, it is assigned rank 3 with cumulated score ~0.9.
    MeasurementSet set;
    set.add("w", {1.0, 1.0});
    set.add("x", {1.3, 1.3});
    set.add("y", {1.6, 1.6});
    set.add("algDA", {1.9, 1.9});

    // Make y vs algDA borderline with high flip rate.
    const FlipComparator cmp(set.samples(2), set.samples(3), 0.45);
    const RelativeClusterer clusterer(cmp, ClustererConfig{400, 23});
    const Clustering result = clusterer.cluster(set);

    const core::FinalAssignment fin = result.final_assignment[3];
    const double s3 = result.score_of(3, 3);
    const double s4 = result.score_of(3, 4);
    EXPECT_NEAR(s3 + s4, 1.0, 1e-12);
    // Max-score rank selected; cumulated score = sum over ranks <= final.
    double cumulated = 0.0;
    for (int r = 1; r <= fin.rank; ++r) cumulated += result.score_of(3, r);
    EXPECT_DOUBLE_EQ(fin.score, cumulated);
    if (s3 > s4) {
        EXPECT_EQ(fin.rank, 3);
    } else {
        EXPECT_EQ(fin.rank, 4);
    }
}

TEST(RelativeClusterer, IsSeedDeterministic) {
    const MeanComparator cmp;
    const RelativeClusterer c1(cmp, ClustererConfig{30, 99});
    const RelativeClusterer c2(cmp, ClustererConfig{30, 99});
    const MeasurementSet set = three_tier_set();
    const Clustering r1 = c1.cluster(set);
    const Clustering r2 = c2.cluster(set);
    ASSERT_EQ(r1.cluster_count(), r2.cluster_count());
    for (std::size_t alg = 0; alg < set.size(); ++alg) {
        for (int r = 1; r <= r1.cluster_count(); ++r) {
            EXPECT_DOUBLE_EQ(r1.score_of(alg, r), r2.score_of(alg, r));
        }
    }
}

TEST(RelativeClusterer, ClusterEntriesAreSortedByScore) {
    MeasurementSet set;
    set.add("a", {1.0, 1.0});
    set.add("b", {1.005, 1.005});
    set.add("c", {1.3, 1.3});
    const FlipComparator cmp(set.samples(0), set.samples(1), 0.5);
    const RelativeClusterer clusterer(cmp, ClustererConfig{200, 5});
    const Clustering result = clusterer.cluster(set);
    for (const auto& cluster : result.clusters) {
        for (std::size_t i = 1; i < cluster.size(); ++i) {
            EXPECT_GE(cluster[i - 1].score, cluster[i].score);
        }
    }
}

TEST(RelativeClusterer, SingleAlgorithmIsTrivialCluster) {
    MeasurementSet set;
    set.add("only", {1.0, 2.0});
    const MeanComparator cmp;
    const RelativeClusterer clusterer(cmp, ClustererConfig{10, 1});
    const Clustering result = clusterer.cluster(set);
    EXPECT_EQ(result.cluster_count(), 1);
    EXPECT_DOUBLE_EQ(result.score_of(0, 1), 1.0);
    EXPECT_EQ(result.final_rank(0), 1);
}

TEST(RelativeClusterer, InvalidInputsThrow) {
    const MeanComparator cmp;
    EXPECT_THROW(RelativeClusterer(cmp, ClustererConfig{0, 1}),
                 relperf::InvalidArgument);
    const RelativeClusterer clusterer(cmp, ClustererConfig{10, 1});
    EXPECT_THROW((void)clusterer.cluster(MeasurementSet{}), relperf::InvalidArgument);
}

TEST(Clustering, ScoreOfOutOfRangeRankIsZero) {
    const MeanComparator cmp;
    const RelativeClusterer clusterer(cmp, ClustererConfig{10, 1});
    const Clustering result = clusterer.cluster(three_tier_set());
    EXPECT_DOUBLE_EQ(result.score_of(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(result.score_of(0, 99), 0.0);
    EXPECT_THROW((void)result.final_rank(99), relperf::InvalidArgument);
}

TEST(Clustering, ScoreOfOutOfRangeAlgorithmThrows) {
    // Regression: an out-of-range algorithm used to read past the cluster
    // rows silently; it must throw like final_rank does.
    const MeanComparator cmp;
    const RelativeClusterer clusterer(cmp, ClustererConfig{10, 1});
    const Clustering result = clusterer.cluster(three_tier_set());
    EXPECT_THROW((void)result.score_of(99, 1), relperf::InvalidArgument);
    EXPECT_THROW((void)result.score_of(result.final_assignment.size(), 1),
                 relperf::InvalidArgument);
}

TEST(Clustering, ScoreOfIndexMatchesClusterScanFallback) {
    // score_of reads the memberships index, which agrees with a scan of
    // `clusters`; a Clustering without the index is refused, not scanned.
    const core::BootstrapComparator cmp(
        core::BootstrapComparatorConfig{.rounds = 25});
    const RelativeClusterer clusterer(cmp, ClustererConfig{25, 17});
    const Clustering indexed = clusterer.cluster(overlapping_set(9, 3));
    ASSERT_FALSE(indexed.memberships.empty());
    for (std::size_t alg = 0; alg < indexed.final_assignment.size(); ++alg) {
        for (int r = 0; r <= indexed.cluster_count() + 1; ++r) {
            double scanned = 0.0;
            if (r >= 1 && r <= indexed.cluster_count()) {
                for (const auto& e : indexed.clusters[static_cast<std::size_t>(r - 1)]) {
                    if (e.alg == alg) scanned = e.score;
                }
            }
            EXPECT_EQ(indexed.score_of(alg, r), scanned);
        }
    }
    Clustering hand_built = indexed;
    hand_built.memberships.clear();
    EXPECT_THROW((void)hand_built.score_of(0, 1), relperf::InvalidArgument);
}

TEST(RelativeClusterer, SparseMatchesDenseOracleBitForBit) {
    // The tentpole claim: the sparse per-algorithm rank tallies produce the
    // exact Clustering of the dense p x p counts matrix, across trivial,
    // minimal, stochastic and wide inputs.
    for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{17},
                                std::size_t{256}}) {
        SCOPED_TRACE("p = " + std::to_string(p));
        const MeasurementSet set = overlapping_set(p, 11 + p);
        const core::BootstrapComparator cmp(
            core::BootstrapComparatorConfig{.rounds = 20});
        const std::size_t reps = p >= 256 ? 4 : 25;
        const ClustererConfig config{reps, 42};
        expect_identical(RelativeClusterer(cmp, config).cluster(set),
                         cluster_dense(cmp, set, config));
    }
}

TEST(RelativeClusterer, WorkersDoNotMoveABit) {
    // The repetitions run on ClustererConfig::workers threads and the tally
    // reads their slots in repetition order, so neither a bit of the
    // clustering nor the comparison count may depend on the thread count.
    // Rep = 13 is a multiple of no pool size tried, 0 asks for one thread
    // per hardware thread and 20 for more threads than repetitions.
    namespace obs = relperf::obs;
    const MeasurementSet set = overlapping_pairs(6, 2);
    const core::BootstrapComparator cmp(
        core::BootstrapComparatorConfig{.rounds = 30});
    const auto run = [&](std::size_t workers, std::uint64_t& resamples,
                         const core::Comparator& comparator) {
        obs::registry().reset_values();
        obs::set_metrics_enabled(true);
        const RelativeClusterer clusterer(comparator,
                                          ClustererConfig{13, 21, workers});
        Clustering out = clusterer.cluster(set);
        resamples = obs::metrics().bootstrap_resamples_total.value();
        obs::set_metrics_enabled(false);
        obs::registry().reset_values();
        return out;
    };
    std::uint64_t serial_resamples = 0;
    const Clustering serial = run(1, serial_resamples, cmp);
    ASSERT_GT(serial_resamples, 0u);
    // The overlapping pairs split algorithms across ranks, so the
    // repetitions really differ from one another.
    bool split = false;
    for (const auto& ranks : serial.memberships) split |= ranks.size() > 1;
    ASSERT_TRUE(split);

    for (const std::size_t workers : {2u, 3u, 4u, 0u, 20u}) {
        SCOPED_TRACE("workers = " + std::to_string(workers));
        std::uint64_t resamples = 0;
        expect_identical(run(workers, resamples, cmp), serial);
        EXPECT_EQ(resamples, serial_resamples);
    }
    expect_identical(cluster_dense(cmp, set, ClustererConfig{13, 21}), serial);

    // compare() settles; the thresholded score() tallies every round. Both
    // must cluster alike and count the same resamples drawn.
    const ThresholdedScore unsettled(cmp);
    for (const std::size_t workers : {1u, 4u}) {
        SCOPED_TRACE("thresholded score(), workers = " + std::to_string(workers));
        std::uint64_t resamples = 0;
        EXPECT_EQ(run(workers, resamples, unsettled), serial);
        EXPECT_EQ(resamples, serial_resamples);
    }
}

TEST(Clustering, BuildClusteringInvertsRankTally) {
    // The tally is the clustering's integer form: rank_tally reads it back
    // exactly and build_clustering rebuilds every field, scores bit for bit.
    const Clustering& ci = ci_plan_clustering();
    EXPECT_EQ(core::build_clustering(core::rank_tally(ci), ci.repetitions), ci);

    Rng rng(2026);
    for (const std::size_t rep : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                  std::size_t{100}, std::size_t{1000003}}) {
        for (const std::size_t p : {std::size_t{1}, std::size_t{2},
                                    std::size_t{5}, std::size_t{9}}) {
            SCOPED_TRACE("Rep = " + std::to_string(rep) +
                         ", p = " + std::to_string(p));
            for (int trial = 0; trial < 4; ++trial) {
                const core::RankTally tally = random_tally(p, rep, rng);
                const Clustering built = core::build_clustering(tally, rep);
                EXPECT_EQ(core::rank_tally(built), tally);
                EXPECT_EQ(core::build_clustering(core::rank_tally(built), rep),
                          built);
            }
        }
    }
}

TEST(Clustering, BuildClusteringRejectsMalformedTallies) {
    using relperf::InvalidArgument;
    const core::RankTally good = {{{1, 2}, {2, 1}}, {{1, 1}, {2, 2}}};
    EXPECT_NO_THROW((void)core::build_clustering(good, 3));
    const std::size_t huge = std::numeric_limits<std::size_t>::max();
    const std::vector<std::pair<const char*, core::RankTally>> bad = {
        {"empty row", {{{1, 3}}, {}}},
        {"unsorted row", {{{2, 1}, {1, 2}}, {{1, 3}}}},
        {"repeated rank", {{{1, 1}, {1, 2}}, {{1, 3}}}},
        {"rank 0", {{{0, 3}}, {{1, 3}}}},
        {"rank above p", {{{3, 3}}, {{1, 3}}}},
        {"negative rank", {{{-1, 3}}, {{1, 3}}}},
        {"row short of Rep", {{{1, 2}}, {{1, 3}}}},
        {"row over Rep", {{{1, 2}, {2, 2}}, {{1, 3}}}},
        {"row wrapping past Rep", {{{1, huge}, {2, 4}}, {{1, 3}}}},
        {"zero count", {{{1, 3}, {2, 0}}, {{1, 3}}}},
        {"no rows", {}},
    };
    for (const auto& [what, tally] : bad) {
        EXPECT_THROW((void)core::build_clustering(tally, 3), InvalidArgument)
            << what;
    }
    EXPECT_THROW((void)core::build_clustering(good, 0), InvalidArgument);

    Clustering hand_built;
    hand_built.clusters = {{core::ClusterEntry{0, 1.0}}};
    hand_built.final_assignment = {core::FinalAssignment{0, 1, 1.0}};
    hand_built.repetitions = 1;
    EXPECT_THROW((void)core::rank_tally(hand_built), InvalidArgument)
        << "no memberships to read the tally from";
}

TEST(Clustering, AnalysisVersionPinsTheCiPlanTally) {
    // Stored clusterings (the result cache's .tally files) are served only
    // under the kAnalysisVersion they were made with. This pins the pair:
    // a change that moves a bit of the CI plan's clustering fails here
    // until the version is bumped, so no stale stored clustering is served.
    std::string text;
    for (const auto& row : core::rank_tally(ci_plan_clustering())) {
        for (const auto& [rank, count] : row) {
            text += relperf::str::format("%d:%zu ", rank, count);
        }
        text += '\n';
    }
    const std::pair<std::uint32_t, std::uint64_t> pinned = {
        1, 0xb36b65a984fe01f1ULL};
    const std::pair<std::uint32_t, std::uint64_t> now = {
        core::kAnalysisVersion, relperf::support::fnv1a(text)};
    EXPECT_EQ(now, pinned)
        << "The CI plan's rank tally is now 0x" << std::hex << now.second
        << ". If a change moved a bit of a Clustering on purpose, bump "
           "core::kAnalysisVersion (src/core/clustering.hpp) so stored "
           "clusterings go stale, and re-pin this pair to the new version "
           "and digest. If it did not mean to, the change is a bug.";
}
