#pragma once
//! \file lint.hpp
//! relperf_lint: a self-contained static checker for the project's
//! determinism invariants. No libclang — a tokenizing scanner is enough for
//! the rule set, keeps the tool dependency-free, and lints a full tree in
//! milliseconds so it can run on every CI push and as a ctest entry.
//!
//! The rules (ids are stable; every diagnostic carries one):
//!
//!   banned-random     std::random_device / rand() / srand() / random() /
//!                     drand48()-family calls. Every random draw in relperf
//!                     must come from a seeded stats::Rng stream, or shard
//!                     merges stop being bit-identical.
//!   banned-clock      wall-clock reads: time()/clock()/clock_gettime()/
//!                     gettimeofday()/timespec_get(), std::chrono
//!                     *_clock::now(), omp_get_wtime(). Only the sanctioned
//!                     timing sites (RealExecutor's measurement loop, bench
//!                     harness self-timing) may read clocks — everything else
//!                     must be deterministic. Suppress per-file via the
//!                     allowlist.
//!   unordered-output  range-for over a std::unordered_{map,set,multimap,
//!                     multiset} whose loop body feeds an output sink
//!                     (stream <<, add_row, write*, format, printf, hash
//!                     update). Unordered iteration order is
//!                     implementation-defined, so anything it feeds into a
//!                     CSV/manifest/hash is nondeterministic across
//!                     stdlibs/runs.
//!   unsorted-dir-iteration
//!                     range-for over a std::filesystem::directory_iterator /
//!                     recursive_directory_iterator whose body feeds an
//!                     output sink directly, or collects entries into a
//!                     container that is never passed through an explicit
//!                     sort()/stable_sort(). Filesystem enumeration order is
//!                     unspecified, so anything derived from it (cache
//!                     indices, eviction order, CLI listings) must sort
//!                     first — the collect-then-sort idiom is clean.
//!   float-precision   a %e/%f/%g/%a conversion without an explicit
//!                     precision in a format()/printf-family call. Default
//!                     precision (6) silently truncates doubles, so written
//!                     values stop round-tripping (%.17g is the contract for
//!                     measurement CSVs).
//!   omp-guard         omp_*() call or <omp.h> include outside an
//!                     `#ifdef _OPENMP` region. Serial builds must compile
//!                     (OpenMP is optional since PR 1); `#pragma omp` lines
//!                     need no guard and are not flagged.
//!   spec-hash-field   a spec key dispatched in CampaignSpec::parse() or
//!                     CampaignSpec::set() (the key setter parse() and the
//!                     shard-manifest reader call) whose field never
//!                     appears in CampaignSpec::hash(). A parsed
//!                     but unhashed field is exactly the bug class PR 5 had
//!                     to hand-audit: two different measurement plans with
//!                     the same plan hash. Fields that genuinely do not
//!                     determine measured values go in the allowlist with a
//!                     justification.
//!   allowlist-unused  an allowlist entry that suppressed nothing in this
//!                     run. Stale entries hide future violations, so the
//!                     allowlist is kept minimal by construction.
//!
//! Exit-code contract (main.cpp): 0 = clean (allowlisted diagnostics are
//! reported but do not fail), 1 = at least one non-allowlisted diagnostic,
//! 2 = usage/IO error. CI and the `lint.tree` ctest entry rely on this.

#include <cstddef>
#include <string>
#include <vector>

namespace relperf::lint {

enum class Severity {
    Warning, // heuristic rule: review, then fix or allowlist
    Error,   // definite invariant violation
};

[[nodiscard]] const char* to_string(Severity severity) noexcept;

struct Diagnostic {
    std::string file;    ///< path as scanned (relative to the lint root)
    std::size_t line = 0;
    std::string rule;    ///< stable rule id, e.g. "banned-clock"
    Severity severity = Severity::Error;
    std::string subject; ///< offending token / field name (allowlist key)
    std::string message;

    /// "file:line: severity: [rule] message" — editor-clickable.
    [[nodiscard]] std::string str() const;
};

struct RuleInfo {
    const char* id;
    Severity severity;
    const char* summary;
};

/// The stable rule table (see the file comment for semantics).
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// One parsed allowlist entry. Grammar (one entry per line):
///
///   <rule-id> <pattern>   # justification (mandatory)
///
/// `pattern` matches a diagnostic when it is a path suffix of the
/// diagnostic's file ("src/sim/real_executor.cpp", "bench/") or exactly
/// equals the diagnostic's subject token (spec field names). Entries without
/// a justification comment are a parse error: the allowlist policy is that
/// every suppression explains itself.
struct AllowEntry {
    std::string rule;
    std::string pattern;
    std::string justification;
    std::size_t line = 0; ///< line in the allowlist file
};

class Allowlist {
public:
    Allowlist() = default;

    /// Parses allowlist text; throws std::runtime_error with file:line on
    /// malformed entries (unknown rule id, missing justification).
    static Allowlist parse(const std::string& text, const std::string& source);
    static Allowlist load(const std::string& path);

    /// True when some entry covers the diagnostic; marks that entry used.
    [[nodiscard]] bool allows(const Diagnostic& diagnostic) const;

    /// Entries that allows() never matched (stale suppressions).
    [[nodiscard]] std::vector<AllowEntry> unused() const;

    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] const std::string& source() const { return source_; }

private:
    std::string source_;
    std::vector<AllowEntry> entries_;
    // Parallel to entries_; mutable usage tracking keeps allows() const.
    mutable std::vector<bool> used_;
};

/// Lints one translation unit's text. `path` is used for diagnostics and
/// for path-sensitive rules (spec-hash-field only fires on spec.cpp).
[[nodiscard]] std::vector<Diagnostic> lint_source(const std::string& path,
                                                  const std::string& text);

struct LintResult {
    std::vector<Diagnostic> diagnostics; ///< allowlisted ones removed
    std::vector<Diagnostic> allowed;     ///< suppressed by the allowlist
    std::size_t files_scanned = 0;
};

/// Walks `paths` (files or directories, relative to `root`), lints every
/// *.cpp/*.hpp/*.h/*.cc in deterministic (sorted) order, applies the
/// allowlist, and appends an `allowlist-unused` diagnostic per stale entry.
/// Throws std::runtime_error when a path does not exist.
[[nodiscard]] LintResult lint_paths(const std::string& root,
                                    const std::vector<std::string>& paths,
                                    const Allowlist& allow);

} // namespace relperf::lint
