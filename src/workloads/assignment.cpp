#include "workloads/assignment.hpp"

#include "support/error.hpp"
#include "support/str.hpp"

#include <set>

namespace relperf::workloads {

char to_char(Placement p) noexcept {
    return static_cast<char>(p);
}

Placement placement_from_char(char c) {
    RELPERF_REQUIRE(c == 'D' || c == 'A',
                    std::string("placement_from_char: expected 'D' or 'A', got '") +
                        c + "'");
    return static_cast<Placement>(c);
}

namespace {

/// Backend tokens in assignment strings: registry-style names only, so the
/// extended syntax stays unambiguous (no ':', ',' or whitespace).
bool valid_backend_token(const std::string& token) {
    if (token.empty()) return false;
    for (const char c : token) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok) return false;
    }
    return true;
}

void require_policy_backend(const std::string& backend) {
    RELPERF_REQUIRE(backend.empty() || valid_backend_token(backend),
                    "VariantAssignment: backend name '" + backend +
                        "' must contain only [A-Za-z0-9_-] characters");
}

/// Parses either assignment syntax into policies. Plain letter strings
/// ("DDA") mean backend-inherit per task; the extended syntax is
/// comma-separated `P[:backend]` fields, one per task.
std::vector<ExecutionPolicy> parse_policies(const std::string& text) {
    RELPERF_REQUIRE(!text.empty(), "VariantAssignment: empty assignment string");
    std::vector<ExecutionPolicy> policies;

    if (text.find(',') == std::string::npos &&
        text.find(':') == std::string::npos) {
        policies.reserve(text.size());
        for (const char c : text) {
            policies.push_back(ExecutionPolicy{placement_from_char(c), ""});
        }
        return policies;
    }

    for (const std::string& field : str::split(text, ',')) {
        RELPERF_REQUIRE(!field.empty(),
                        "VariantAssignment: empty task field in '" + text + "'");
        ExecutionPolicy policy;
        policy.placement = placement_from_char(field.front());
        if (field.size() > 1) {
            RELPERF_REQUIRE(field[1] == ':',
                            "VariantAssignment: task field '" + field +
                                "' must be 'D', 'A', 'D:<backend>' or "
                                "'A:<backend>'");
            policy.backend = field.substr(2);
            RELPERF_REQUIRE(valid_backend_token(policy.backend),
                            "VariantAssignment: bad backend name in field '" +
                                field + "'");
        }
        policies.push_back(std::move(policy));
    }
    return policies;
}

} // namespace

VariantAssignment::VariantAssignment(const std::string& text)
    : VariantAssignment(parse_policies(text)) {}

VariantAssignment::VariantAssignment(std::vector<ExecutionPolicy> policies)
    : policies_(std::move(policies)) {
    RELPERF_REQUIRE(!policies_.empty(), "VariantAssignment: empty policy vector");
    for (const ExecutionPolicy& policy : policies_) {
        require_policy_backend(policy.backend);
    }
}

const ExecutionPolicy& VariantAssignment::at(std::size_t task_index) const {
    RELPERF_REQUIRE(task_index < policies_.size(),
                    "VariantAssignment: task index out of range");
    return policies_[task_index];
}

bool VariantAssignment::uniform_inherit() const noexcept {
    for (const ExecutionPolicy& policy : policies_) {
        if (!policy.backend.empty()) return false;
    }
    return true;
}

const std::string& VariantAssignment::resolved_backend(
    std::size_t task_index, const std::string& chain_default) const {
    const ExecutionPolicy& policy = at(task_index);
    return policy.backend.empty() ? chain_default : policy.backend;
}

std::string VariantAssignment::str() const {
    // All-inherit variants print as the paper's plain letter string.
    const bool plain = uniform_inherit();
    std::string out;
    for (std::size_t i = 0; i < policies_.size(); ++i) {
        if (i > 0 && !plain) out.push_back(',');
        out.push_back(to_char(policies_[i].placement));
        if (!policies_[i].backend.empty()) {
            out.push_back(':');
            out += policies_[i].backend;
        }
    }
    return out;
}

std::vector<VariantAssignment> enumerate_assignments(std::size_t task_count) {
    RELPERF_REQUIRE(task_count > 0, "enumerate_assignments: need at least one task");
    RELPERF_REQUIRE(
        task_count < kMaxEnumeratedTasks,
        str::format("enumerate_assignments: 2^k would explode for k = %zu "
                    "(limit: k < %zu); use subset search instead",
                    task_count, kMaxEnumeratedTasks));
    std::vector<VariantAssignment> out;
    const std::size_t total = std::size_t{1} << task_count;
    out.reserve(total);
    for (std::size_t mask = 0; mask < total; ++mask) {
        std::vector<ExecutionPolicy> policies(task_count);
        for (std::size_t bit = 0; bit < task_count; ++bit) {
            // Most-significant task first so the order is DD, DA, AD, AA.
            if (mask & (std::size_t{1} << (task_count - 1 - bit))) {
                policies[bit].placement = Placement::Accelerator;
            }
        }
        out.emplace_back(std::move(policies));
    }
    return out;
}

std::vector<VariantAssignment> enumerate_variants(
    std::size_t task_count, const std::vector<std::string>& backends) {
    RELPERF_REQUIRE(task_count > 0, "enumerate_variants: need at least one task");
    RELPERF_REQUIRE(
        task_count < kMaxEnumeratedTasks,
        str::format("enumerate_variants: (2B)^k would explode for k = %zu "
                    "(limit: k < %zu); use subset search instead",
                    task_count, kMaxEnumeratedTasks));
    RELPERF_REQUIRE(!backends.empty(),
                    "enumerate_variants: need at least one backend");
    std::set<std::string> unique;
    for (const std::string& name : backends) {
        RELPERF_REQUIRE(valid_backend_token(name),
                        "enumerate_variants: bad backend name '" + name + "'");
        RELPERF_REQUIRE(unique.insert(name).second,
                        "enumerate_variants: duplicate backend '" + name + "'");
    }

    // (2B)^k, with the product guarded instead of computed blindly.
    const std::size_t choices = 2 * backends.size();
    std::size_t total = 1;
    for (std::size_t i = 0; i < task_count; ++i) {
        RELPERF_REQUIRE(
            total <= kMaxEnumeratedVariants / choices,
            str::format("enumerate_variants: (2*%zu)^%zu variants exceed the "
                        "%zu enumeration limit; use subset search instead",
                        backends.size(), task_count, kMaxEnumeratedVariants));
        total *= choices;
    }

    // Odometer over the backend tuple, most-significant task first; returns
    // false when the tuple wraps back to all-zero (the combo space is done).
    const auto advance = [&](std::vector<std::size_t>& digits) {
        std::size_t pos = task_count;
        while (pos > 0) {
            --pos;
            if (++digits[pos] < backends.size()) return true;
            digits[pos] = 0;
        }
        return false;
    };

    std::vector<VariantAssignment> out;
    out.reserve(total);
    for (const VariantAssignment& placements : enumerate_assignments(task_count)) {
        std::vector<std::size_t> digits(task_count, 0);
        do {
            std::vector<ExecutionPolicy> policies = placements.policies();
            for (std::size_t i = 0; i < task_count; ++i) {
                policies[i].backend = backends[digits[i]];
            }
            out.emplace_back(std::move(policies));
        } while (advance(digits));
    }
    return out;
}

} // namespace relperf::workloads
