#include "core/clustering.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace relperf::core {

Clustering build_clustering(const RankTally& tally, std::size_t repetitions) {
    RELPERF_REQUIRE(!tally.empty(), "build_clustering: no algorithms");
    RELPERF_REQUIRE(repetitions > 0,
                    "build_clustering: repetitions must be positive");
    const std::size_t p = tally.size();
    int max_rank = 0;
    for (const auto& row : tally) {
        RELPERF_REQUIRE(!row.empty(), "build_clustering: empty tally row");
        int previous = 0;
        std::size_t sum = 0;
        for (const auto& [rank, w] : row) {
            RELPERF_REQUIRE(rank >= 1 && static_cast<std::size_t>(rank) <= p,
                            "build_clustering: rank outside [1, p]");
            RELPERF_REQUIRE(rank > previous,
                            "build_clustering: tally row not ascending");
            RELPERF_REQUIRE(w > 0 && w <= repetitions - sum,
                            "build_clustering: tally row does not sum to "
                            "repetitions");
            sum += w;
            previous = rank;
        }
        RELPERF_REQUIRE(sum == repetitions,
                        "build_clustering: tally row does not sum to "
                        "repetitions");
        max_rank = std::max(max_rank, previous);
    }

    Clustering out;
    out.repetitions = repetitions;
    out.clusters.resize(static_cast<std::size_t>(max_rank));
    out.memberships.resize(p);

    // Relative scores (Procedure 4 lines 10-12).
    const double rep = static_cast<double>(repetitions);
    for (std::size_t alg = 0; alg < p; ++alg) {
        for (const auto& [rank, w] : tally[alg]) {
            const double score = static_cast<double>(w) / rep;
            out.clusters[static_cast<std::size_t>(rank - 1)].push_back(
                ClusterEntry{alg, score});
            out.memberships[alg].push_back(RankScore{rank, score});
        }
    }
    for (auto& cluster : out.clusters) {
        std::sort(cluster.begin(), cluster.end(),
                  [](const ClusterEntry& a, const ClusterEntry& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.alg < b.alg;
                  });
    }

    // Final unique assignment (Sec. III): max-score rank, ties towards the
    // better rank, score cumulated over better-or-equal ranks.
    out.final_assignment.resize(p);
    for (std::size_t alg = 0; alg < p; ++alg) {
        int best_rank = 1;
        std::size_t best_count = 0;
        for (const auto& [rank, w] : tally[alg]) {
            if (w > best_count) {
                best_count = w;
                best_rank = rank;
            }
        }
        double cumulated = 0.0;
        for (const auto& [rank, w] : tally[alg]) {
            if (rank > best_rank) break; // ascending rank order
            cumulated += static_cast<double>(w) / rep;
        }
        out.final_assignment[alg] = FinalAssignment{alg, best_rank, cumulated};
    }
    return out;
}

RankTally rank_tally(const Clustering& clustering) {
    RELPERF_REQUIRE(clustering.repetitions > 0 &&
                        clustering.memberships.size() ==
                            clustering.final_assignment.size(),
                    "rank_tally: needs a clusterer-built Clustering");
    const double rep = static_cast<double>(clustering.repetitions);
    RankTally tally(clustering.memberships.size());
    for (std::size_t alg = 0; alg < tally.size(); ++alg) {
        for (const RankScore& m : clustering.memberships[alg]) {
            tally[alg].emplace_back(
                m.rank, static_cast<std::size_t>(std::llround(m.score * rep)));
        }
    }
    return tally;
}

double Clustering::score_of(std::size_t alg, int rank) const {
    RELPERF_REQUIRE(alg < final_assignment.size(),
                    "Clustering: algorithm out of range");
    RELPERF_REQUIRE(memberships.size() == final_assignment.size(),
                    "Clustering: score_of needs the memberships index");
    if (rank < 1 || rank > cluster_count()) return 0.0;
    // The algorithm's own (rank, score) list, at most one entry per
    // distinct rank observed (<= min(Rep, cluster count)).
    for (const RankScore& m : memberships[alg]) {
        if (m.rank == rank) return m.score;
        if (m.rank > rank) break; // ascending
    }
    return 0.0;
}

int Clustering::final_rank(std::size_t alg) const {
    RELPERF_REQUIRE(alg < final_assignment.size(), "Clustering: algorithm out of range");
    return final_assignment[alg].rank;
}

void ClustererConfig::validate() const {
    RELPERF_REQUIRE(repetitions > 0, "ClustererConfig: repetitions must be positive");
}

std::size_t ClustererConfig::threads() const noexcept {
    return std::min({support::resolve_workers(workers),
                     support::hardware_threads(), repetitions});
}

RelativeClusterer::RelativeClusterer(const Comparator& comparator,
                                     ClustererConfig config)
    : comparator_(comparator), config_(config) {
    config_.validate();
}

RankedSequence RelativeClusterer::sort_once(const MeasurementSet& measurements,
                                            std::vector<std::size_t> initial_order,
                                            stats::Rng& rng) const {
    ThreeWaySorter sorter([&](std::size_t a, std::size_t b) {
        return comparator_.compare(measurements.samples(a), measurements.samples(b),
                                   rng);
    });
    return sorter.sort(std::move(initial_order));
}

RankedSequence RelativeClusterer::sort_once_traced(const MeasurementSet& measurements,
                                                   std::vector<std::size_t> initial_order,
                                                   stats::Rng& rng,
                                                   std::vector<SortStep>& trace) const {
    ThreeWaySorter sorter([&](std::size_t a, std::size_t b) {
        return comparator_.compare(measurements.samples(a), measurements.samples(b),
                                   rng);
    });
    return sorter.sort_traced(std::move(initial_order), trace);
}

Clustering RelativeClusterer::cluster(const MeasurementSet& measurements) const {
    RELPERF_REQUIRE(!measurements.empty(), "RelativeClusterer: no algorithms");
    const std::size_t p = measurements.size();
    obs::Span span("clusterer.cluster", "core");
    span.arg("algorithms", static_cast<std::uint64_t>(p))
        .arg("repetitions", static_cast<std::uint64_t>(config_.repetitions))
        .arg("workers", static_cast<std::uint64_t>(config_.threads()));
    obs::metrics().clusterings_total.inc();

    // Procedure 4's repetitions: repetition r takes child stream r of the
    // master seed, shuffles the algorithm order on it (line 4, Shuffle(A))
    // and sorts on the rest of the stream (line 5, SortAlgs(A)) into slot r,
    // on config_.threads() threads.
    const stats::Rng master(config_.seed);
    std::vector<RankedSequence> slots(config_.repetitions);
    support::parallel_for(
        config_.repetitions, config_.threads(), [&](std::size_t rep) {
            stats::Rng rng = master.child(rep);
            std::vector<std::size_t> order(p);
            std::iota(order.begin(), order.end(), std::size_t{0});
            rng.shuffle(order);
            slots[rep] = sort_once(measurements, std::move(order), rng);
        });

    // The tally reads the slots in repetition order on the calling thread.
    // counts[alg] = ascending (rank, count) pairs actually observed — at
    // most min(Rep, cluster count) entries, never p.
    RankTally counts(p);
    for (const RankedSequence& seq : slots) {
        for (std::size_t pos = 0; pos < p; ++pos) {
            const int rank = seq.ranks[pos];
            RELPERF_ASSERT(rank >= 1 && rank <= static_cast<int>(p),
                           "RelativeClusterer: rank out of range");
            auto& per_alg = counts[seq.order[pos]];
            auto it = std::find_if(per_alg.begin(), per_alg.end(),
                                   [rank](const auto& rc) {
                                       return rc.first == rank;
                                   });
            if (it == per_alg.end()) {
                per_alg.emplace_back(rank, std::size_t{1});
            } else {
                ++it->second;
            }
        }
    }
    for (auto& per_alg : counts) {
        std::sort(per_alg.begin(), per_alg.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    return build_clustering(counts, config_.repetitions);
}

} // namespace relperf::core
