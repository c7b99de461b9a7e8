#pragma once
//! \file assignment.hpp
//! Device assignments — the paper's algorithm space. Each mathematically
//! equivalent "algorithm" is one way of placing the tasks of a chain on the
//! edge **D**evice or the **A**ccelerator, written as a letter string such as
//! "DDA" (Table I) or "AD" (Figure 1a).
//!
//! Beyond the paper's binary space, a VariantAssignment attaches a per-task
//! *execution policy* — placement plus linalg backend — so the same chain can
//! be measured as "L1 on the portable kernels, L2 offloaded on vendor BLAS"
//! and every mix in between. With B backends per task the space grows from
//! 2^k to (2·B)^k, exactly the Sec. V regime where the methodology must be
//! applied to a subset of the space.

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

/// Immutable placement vector with the paper's letter-string syntax.
class DeviceAssignment {
public:
    /// Parses e.g. "DDA"; throws InvalidArgument on characters outside {D, A}
    /// or on an empty string.
    explicit DeviceAssignment(const std::string& letters);

    explicit DeviceAssignment(std::vector<Placement> placements);

    [[nodiscard]] std::size_t size() const noexcept { return placements_.size(); }
    [[nodiscard]] Placement at(std::size_t task_index) const;
    [[nodiscard]] const std::vector<Placement>& placements() const noexcept {
        return placements_;
    }

    /// Letter string, e.g. "DDA".
    [[nodiscard]] std::string str() const;

    /// Paper-style algorithm name, e.g. "algDDA".
    [[nodiscard]] std::string alg_name() const { return "alg" + str(); }

    /// Number of tasks placed on the accelerator.
    [[nodiscard]] std::size_t accelerator_count() const noexcept;

    /// Number of device changes along the chain including the virtual start
    /// on the Device (the code is invoked from the edge, paper Sec. I).
    [[nodiscard]] std::size_t switch_count() const noexcept;

    [[nodiscard]] bool operator==(const DeviceAssignment& other) const noexcept {
        return placements_ == other.placements_;
    }

private:
    std::vector<Placement> placements_;
};

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

/// Immutable per-task execution-policy vector — the placement×backend
/// generalization of DeviceAssignment.
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

    /// Plain placements, every task inheriting the chain backend — the exact
    /// semantics the letter-string algorithms always had.
    explicit VariantAssignment(const DeviceAssignment& placements);

    [[nodiscard]] std::size_t size() const noexcept { return policies_.size(); }
    [[nodiscard]] const ExecutionPolicy& at(std::size_t task_index) const;
    [[nodiscard]] const std::vector<ExecutionPolicy>& policies() const noexcept {
        return policies_;
    }

    /// The placement projection (drops the backend axis). Cached; valid for
    /// the lifetime of this object.
    [[nodiscard]] const DeviceAssignment& device_assignment() const noexcept {
        return placements_;
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
    DeviceAssignment placements_;
};

/// All 2^k assignments for a k-task chain, in lexicographic order with
/// D < A ("DD", "DA", "AD", "AA" for k = 2). Throws InvalidArgument when
/// task_count is 0 or >= kMaxEnumeratedTasks (the message names k).
[[nodiscard]] std::vector<DeviceAssignment> enumerate_assignments(std::size_t task_count);

/// Each assignment as the variant that runs it with every task inheriting
/// the chain backend, in the same order.
[[nodiscard]] std::vector<VariantAssignment> to_variants(
    const std::vector<DeviceAssignment>& assignments);

/// All (2·B)^k per-task (placement, backend) variants of a k-task chain over
/// the B given backends, ordered by placement string first (the
/// enumerate_assignments order), then by backend tuple (most-significant task
/// first, backends in the given order). Backend names must be non-empty and
/// distinct. Throws InvalidArgument when task_count is 0 or >=
/// kMaxEnumeratedTasks, or when (2·B)^k exceeds kMaxEnumeratedVariants.
[[nodiscard]] std::vector<VariantAssignment> enumerate_variants(
    std::size_t task_count, const std::vector<std::string>& backends);

} // namespace relperf::workloads
