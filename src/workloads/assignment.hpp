#pragma once
//! \file assignment.hpp
//! The algorithm space. Each mathematically equivalent "algorithm" is one
//! VariantAssignment: a per-task *execution policy* — placement on the edge
//! **D**evice or the **A**ccelerator, plus a linalg backend. The paper's
//! algorithms are the plain letter strings such as "DDA" (Table I) or "AD"
//! (Figure 1a): every task inherits the chain backend, and
//! enumerate_assignments returns all 2^k of them.
//!
//! Naming a backend per task measures the same chain as "L1 on the portable
//! kernels, L2 offloaded on vendor BLAS" and every mix in between. With B
//! backends per task the space grows from 2^k to (2·B)^k, exactly the Sec. V
//! regime where the methodology must be applied to a subset of the space.

#include <cstddef>
#include <string>
#include <vector>

namespace relperf::workloads {

/// Where a task runs.
enum class Placement : char {
    Device = 'D',      ///< Edge device (the data home; the code is invoked here).
    Accelerator = 'A', ///< Offload target (GPU / server / ...).
};

[[nodiscard]] char to_char(Placement p) noexcept;
[[nodiscard]] Placement placement_from_char(char c);

/// Enumeration explosion guard shared by enumerate_assignments and
/// enumerate_variants: chains of kMaxEnumeratedTasks or more tasks are
/// rejected. Subset search does not lift the limit — search::ModelGuidedSearch
/// enumerates its campaign spec's space as well (it measures a subset), and
/// a spec caps a plan at 16 tasks.
inline constexpr std::size_t kMaxEnumeratedTasks = 20;

/// Upper bound on the *number* of enumerated variants ((2B)^k grows much
/// faster than 2^k, so enumerate_variants guards the product, too).
inline constexpr std::size_t kMaxEnumeratedVariants = std::size_t{1} << 20;

/// How one task of a chain is executed: where it runs and which linalg
/// backend its kernels use. An empty backend means "inherit" — the chain's
/// default backend (TaskChain::backend), else whatever backend is active on
/// the executing thread. A non-empty backend overrides the chain default for
/// this task only.
struct ExecutionPolicy {
    Placement placement = Placement::Device;
    std::string backend;

    [[nodiscard]] bool operator==(const ExecutionPolicy& other) const noexcept {
        return placement == other.placement && backend == other.backend;
    }
};

/// Immutable per-task execution-policy vector: one algorithm of a chain.
///
/// Text syntax: the paper's plain letter string ("DDA") stays valid and means
/// backend-inherit on every task. The extended syntax is comma-separated
/// per-task policies `P[:backend]`, e.g. "D:portable,A:blas" or "D,A:blas"
/// (the first task inherits). str() prints the canonical form: the plain
/// letter string when every task inherits, the extended form otherwise.
class VariantAssignment {
public:
    /// Parses either syntax; throws InvalidArgument on malformed text.
    explicit VariantAssignment(const std::string& text);

    explicit VariantAssignment(std::vector<ExecutionPolicy> policies);

    [[nodiscard]] std::size_t size() const noexcept { return policies_.size(); }
    [[nodiscard]] const ExecutionPolicy& at(std::size_t task_index) const;
    [[nodiscard]] const std::vector<ExecutionPolicy>& policies() const noexcept {
        return policies_;
    }

    /// True when every task's backend is empty (pure placement algorithm).
    [[nodiscard]] bool uniform_inherit() const noexcept;

    /// Backend task `task_index` actually runs on: its policy backend when
    /// set, else `chain_default` (TaskChain::backend; may itself be empty =
    /// inherit the ambient backend).
    [[nodiscard]] const std::string& resolved_backend(
        std::size_t task_index, const std::string& chain_default) const;

    /// Canonical text form: "DDA" when every task inherits, else e.g.
    /// "D:portable,A:blas". parse(str()) == *this.
    [[nodiscard]] std::string str() const;

    /// Algorithm name: "alg" + str(), so pure-placement variants keep the
    /// paper's names ("algDDA") and mixed variants read "algD:portable,A:blas".
    [[nodiscard]] std::string alg_name() const { return "alg" + str(); }

    [[nodiscard]] bool operator==(const VariantAssignment& other) const noexcept {
        return policies_ == other.policies_;
    }

private:
    std::vector<ExecutionPolicy> policies_;
};

/// All 2^k plain (backend-inherit) assignments of a k-task chain, in
/// lexicographic order with D < A ("DD", "DA", "AD", "AA" for k = 2). Throws
/// InvalidArgument when task_count is 0 or >= kMaxEnumeratedTasks (the
/// message names k).
[[nodiscard]] std::vector<VariantAssignment> enumerate_assignments(
    std::size_t task_count);

/// All (2·B)^k per-task (placement, backend) variants of a k-task chain over
/// the B given backends, ordered by placement string first (the
/// enumerate_assignments order), then by backend tuple (most-significant task
/// first, backends in the given order). Backend names must be non-empty and
/// distinct. Throws InvalidArgument when task_count is 0 or >=
/// kMaxEnumeratedTasks, or when (2·B)^k exceeds kMaxEnumeratedVariants.
[[nodiscard]] std::vector<VariantAssignment> enumerate_variants(
    std::size_t task_count, const std::vector<std::string>& backends);

} // namespace relperf::workloads
