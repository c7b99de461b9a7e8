#pragma once
//! \file ranking.hpp
//! Rank-correlation statistics used to evaluate predicted orderings against
//! measured ones (the paper's future-work direction, Sec. V: performance
//! models that predict relative scores without executing all algorithms).

#include <span>
#include <vector>

namespace relperf::stats {

/// Kendall's tau-b in [-1, 1] between two paired score vectors, with tie
/// correction in both variables. 1 = identical ordering, -1 = reversed,
/// 0 = unrelated. Throws InvalidArgument on size mismatch / size < 2.
[[nodiscard]] double kendall_tau_b(std::span<const double> a,
                                   std::span<const double> b);

/// Spearman's rho: Pearson correlation of midranks.
[[nodiscard]] double spearman_rho(std::span<const double> a,
                                  std::span<const double> b);

/// Fraction of discordant pairs (strictly ordered in `a` but oppositely
/// ordered in `b`), over strictly-ordered-in-`a` pairs. 0 = all pairwise
/// decisions agree.
[[nodiscard]] double pairwise_disagreement(std::span<const double> a,
                                           std::span<const double> b);

/// Midranks of a vector (average rank for ties), 1-based.
[[nodiscard]] std::vector<double> midrank(std::span<const double> values);

/// Adjusted Rand index between two clusterings given as label vectors: the
/// fraction of element pairs on which they agree (same-cluster in both or
/// split in both), corrected for chance; 1 = identical partitions, ~0 =
/// random relabeling, can be negative for adversarial disagreement.
[[nodiscard]] double adjusted_rand_index(std::span<const int> labels_a,
                                         std::span<const int> labels_b);

} // namespace relperf::stats
