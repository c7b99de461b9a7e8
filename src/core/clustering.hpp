#pragma once
//! \file clustering.hpp
//! Relative-score clustering — the paper's Procedure 4 plus the final
//! unique-assignment rule of Section III.
//!
//! The sort of Procedures 1-3 is stochastic when distributions overlap, so it
//! is repeated `Rep` times over the *same* measurements (shuffling the
//! algorithm order before each repetition; the measurements are never
//! re-taken, paper footnote 5). An algorithm assigned rank r in w of the Rep
//! repetitions receives relative score w / Rep for cluster r — the confidence
//! of membership. The final unique assignment puts each algorithm into its
//! max-score cluster with the scores of better ranks cumulated (the paper's
//! algDA example: rank 3 at 0.6 + rank 2 at 0.3 => final rank 3, score 0.9).
//!
//! Every clustering — a one-shot analysis and each adaptive engine round
//! alike — goes through the one cluster() path, and it keeps no state between
//! calls: repetition r shuffles and compares on child stream r of the
//! configured seed, so a Clustering is a pure function of (measurements,
//! comparator, config). That is why the engine can publish its last round's
//! clustering as the analysis of the final measurements.
//!
//! The repetitions are independent, so they run on a pool of
//! ClustererConfig::workers threads, each writing its sorted sequence into
//! its own slot; the rank tally then reads the slots in repetition order on
//! the calling thread. No output bit depends on the thread count.
//!
//! Scale note: an algorithm can only ever be observed in at most
//! min(Rep, cluster-count) distinct ranks, so the rank tallies are kept as
//! per-algorithm sparse (rank, count) lists — O(p * Rep) peak memory instead
//! of the dense p x p counts matrix (32 GiB at the 65536-variant cap). The
//! repetition slots add Rep * p * 12 bytes (order plus ranks). A dense
//! p x p tally exists only in the tests, as the oracle cluster() is
//! asserted bit-identical against.

#include "core/comparison.hpp"
#include "core/measurement.hpp"
#include "core/threeway_sort.hpp"

#include <cstdint>
#include <utility>
#include <vector>

namespace relperf::core {

/// Version of the analysis semantics. Bump on any change that moves a bit
/// of a Clustering for given measurements and config (comparator, sort,
/// tally or builder arithmetic, or a constant such as the quantile range).
/// Stored clusterings carry it, so a bump makes them stale.
inline constexpr std::uint32_t kAnalysisVersion = 1;

/// Membership of one algorithm in one cluster, with its relative score.
struct ClusterEntry {
    std::size_t alg = 0;
    double score = 0.0; ///< Fraction of repetitions with this rank, in (0, 1].

    bool operator==(const ClusterEntry&) const = default;
};

/// Final unique assignment of one algorithm.
struct FinalAssignment {
    std::size_t alg = 0;
    int rank = 0;       ///< 1-based performance class.
    double score = 0.0; ///< Cumulated score over ranks <= rank.

    bool operator==(const FinalAssignment&) const = default;
};

/// One algorithm's membership in one rank, as stored in the per-algorithm
/// score index (sorted by rank ascending).
struct RankScore {
    int rank = 0;
    double score = 0.0;

    bool operator==(const RankScore&) const = default;
};

/// Full clustering result.
struct Clustering {
    /// clusters[r-1] = algorithms that obtained rank r in >= 1 repetition,
    /// sorted by descending score (the paper's Table I layout).
    std::vector<std::vector<ClusterEntry>> clusters;
    /// Final unique assignment, indexed by algorithm id.
    std::vector<FinalAssignment> final_assignment;
    /// Per-algorithm (rank, score) memberships, sorted by rank — the index
    /// behind score_of. build_clustering fills it; score_of throws
    /// InvalidArgument on a Clustering without it.
    std::vector<std::vector<RankScore>> memberships;
    /// Number of repetitions actually performed (Rep).
    std::size_t repetitions = 0;

    [[nodiscard]] int cluster_count() const noexcept {
        return static_cast<int>(clusters.size());
    }

    /// Relative score of `alg` in cluster `rank` (0 when the algorithm never
    /// obtained that rank, including out-of-range ranks). Throws
    /// InvalidArgument for an out-of-range algorithm index, like final_rank,
    /// and for a Clustering without memberships.
    [[nodiscard]] double score_of(std::size_t alg, int rank) const;

    /// Convenience: final rank of `alg`.
    [[nodiscard]] int final_rank(std::size_t alg) const;

    /// Field-by-field equality, scores compared exactly.
    bool operator==(const Clustering&) const = default;
};

/// Procedure 4's tally: row `alg` lists each rank the algorithm obtained, in
/// ascending rank order, with the number of repetitions that gave it.
using RankTally = std::vector<std::vector<std::pair<int, std::size_t>>>;

/// The Clustering a tally over `repetitions` repetitions stands for: scores
/// count / Rep (Procedure 4 lines 10-12), clusters sorted by descending
/// score, and the final unique assignment. The one builder: cluster() and
/// an exact cache hit's stored tally end here. Throws InvalidArgument when
/// the tally is empty or Rep is 0, or when a row is empty, is not strictly
/// ascending in rank, holds a rank outside [1, p] or a zero count, or does
/// not sum to Rep.
[[nodiscard]] Clustering build_clustering(const RankTally& tally,
                                          std::size_t repetitions);

/// The tally a clusterer-built Clustering came from, read back from its
/// memberships as llround(score * Rep). Exact: each score is the correctly
/// rounded count / Rep with count <= Rep. Throws InvalidArgument for a
/// Clustering without memberships or repetitions.
[[nodiscard]] RankTally rank_tally(const Clustering& clustering);

/// Configuration of the repeated clustering.
struct ClustererConfig {
    std::size_t repetitions = 100;    ///< Paper's Rep.
    std::uint64_t seed = 0xC0FFEEULL; ///< Master seed (shuffles + comparator).
    /// Threads the repetitions run on; 0 means one per hardware thread.
    /// Part of the run, not of the plan: the Clustering is bit-identical at
    /// every count. Above 1 the comparator's compare() runs concurrently,
    /// which the Comparator contract allows (comparison.hpp).
    std::size_t workers = 1;

    void validate() const;

    /// Threads cluster() uses: `workers`, capped at Rep and at the hardware
    /// thread count.
    [[nodiscard]] std::size_t threads() const noexcept;
};

/// Runs Procedure 4 over a MeasurementSet with any Comparator.
class RelativeClusterer {
public:
    RelativeClusterer(const Comparator& comparator, ClustererConfig config = {});

    [[nodiscard]] Clustering cluster(const MeasurementSet& measurements) const;

    /// Single sort pass (one repetition) from a given initial order; exposed
    /// for diagnostics, the Figure 2 bench and the tests' dense oracle.
    [[nodiscard]] RankedSequence sort_once(const MeasurementSet& measurements,
                                           std::vector<std::size_t> initial_order,
                                           stats::Rng& rng) const;

    /// As sort_once, with a step trace.
    [[nodiscard]] RankedSequence sort_once_traced(const MeasurementSet& measurements,
                                                  std::vector<std::size_t> initial_order,
                                                  stats::Rng& rng,
                                                  std::vector<SortStep>& trace) const;

private:
    const Comparator& comparator_;
    ClustererConfig config_;
};

} // namespace relperf::core
