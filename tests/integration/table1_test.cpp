//! Integration test for the paper's Table I: the eight splits of the
//! three-task RLS chain (sizes 50/75/300, n = 10), N = 30 measurements,
//! Rep = 100 clustering repetitions.
//!
//! Reproduction targets (shape, the calibration targets in sim/profile.hpp):
//!   * algDDA is the winner (C1, score 1.0);
//!   * algDDD lands in the second class ("not so bad", paper Sec. IV);
//!   * algDAA sits at the top, straddling C1/C2 across samples;
//!   * every algorithm that offloads L1 lands in a middle band;
//!   * algAAD is clearly the worst;
//!   * around five performance classes are found.

#include "core/pipeline.hpp"
#include "sim/profile.hpp"
#include "workloads/chain.hpp"

#include <gtest/gtest.h>

#include <set>

namespace core = relperf::core;
namespace sim = relperf::sim;
namespace workloads = relperf::workloads;

namespace {

core::AnalysisResult run_table1(std::uint64_t seed) {
    const workloads::TaskChain chain = workloads::paper_rls_chain(10);
    static const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    core::AnalysisConfig config;
    config.measurements_per_alg = 30;
    config.clustering.repetitions = 100;
    config.measurement_seed = seed;
    config.clustering.seed = seed * 31 + 1;
    return core::analyze_chain(executor, chain,
                               workloads::enumerate_assignments(3), config);
}

} // namespace

TEST(Table1, WinnerAndLoserAreUnambiguous) {
    for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
        const core::AnalysisResult r = run_table1(seed);
        const auto& m = r.measurements;
        const auto& c = r.clustering;
        // algDDA always ends in the best class.
        EXPECT_EQ(c.final_rank(m.index_of("algDDA")), 1) << "seed " << seed;
        // algAAD always ends in the worst class.
        const int aad = c.final_rank(m.index_of("algAAD"));
        for (const char* alg :
             {"algDDD", "algDDA", "algDAD", "algDAA", "algADD", "algADA", "algAAA"}) {
            EXPECT_LT(c.final_rank(m.index_of(alg)), aad)
                << "seed " << seed << " alg " << alg;
        }
    }
}

TEST(Table1, DddIsSecondClassAndAheadOfL1Offloaders) {
    const core::AnalysisResult r = run_table1(42);
    const auto& m = r.measurements;
    const auto& c = r.clustering;
    const int ddd = c.final_rank(m.index_of("algDDD"));
    EXPECT_EQ(ddd, 2);
    for (const char* alg : {"algADD", "algADA", "algAAA", "algAAD"}) {
        EXPECT_GT(c.final_rank(m.index_of(alg)), ddd) << alg;
    }
}

TEST(Table1, DaaStaysInTheTopTwoClasses) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
        const core::AnalysisResult r = run_table1(seed);
        const int rank =
            r.clustering.final_rank(r.measurements.index_of("algDAA"));
        EXPECT_GE(rank, 1) << "seed " << seed;
        EXPECT_LE(rank, 2) << "seed " << seed;
    }
}

TEST(Table1, MiddleBandGroupsTheL1Offloaders) {
    const core::AnalysisResult r = run_table1(42);
    const auto& m = r.measurements;
    const auto& c = r.clustering;
    // ADA/ADD/AAA/DAD all between DDD and AAD.
    const int ddd = c.final_rank(m.index_of("algDDD"));
    const int aad = c.final_rank(m.index_of("algAAD"));
    for (const char* alg : {"algADA", "algADD", "algAAA", "algDAD"}) {
        const int rank = c.final_rank(m.index_of(alg));
        EXPECT_GT(rank, ddd) << alg;
        EXPECT_LT(rank, aad) << alg;
    }
}

TEST(Table1, AboutFivePerformanceClasses) {
    for (const std::uint64_t seed : {7ull, 14ull, 21ull, 28ull}) {
        const core::AnalysisResult r = run_table1(seed);
        std::set<int> final_ranks;
        for (const auto& fin : r.clustering.final_assignment) {
            final_ranks.insert(fin.rank);
        }
        EXPECT_GE(final_ranks.size(), 4u) << "seed " << seed;
        EXPECT_LE(final_ranks.size(), 6u) << "seed " << seed;
    }
}

TEST(Table1, RelativeScoresRevealStraddlers) {
    // Across several samples, at least one algorithm must appear in two
    // adjacent clusters with non-trivial scores (the paper's DAA at 0.6/0.4
    // and DAD at 0.7/0.3).
    int straddlers_seen = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const core::AnalysisResult r = run_table1(seed);
        const auto& c = r.clustering;
        for (std::size_t alg = 0; alg < 8; ++alg) {
            for (int rank = 1; rank < c.cluster_count(); ++rank) {
                if (c.score_of(alg, rank) >= 0.1 &&
                    c.score_of(alg, rank + 1) >= 0.1) {
                    ++straddlers_seen;
                }
            }
        }
    }
    EXPECT_GE(straddlers_seen, 3);
}
