// Tests for relperf_lint: every rule demonstrated by a violating fixture
// (exact rule id + line asserted), clean counterparts, allowlist semantics
// (suppression, mandatory justification, stale-entry reporting), and the
// self-check that the real tree lints clean under ci/lint_allow.txt.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace lint = relperf::lint;

namespace {

std::string fixture_dir() { return RELPERF_LINT_FIXTURES; }
std::string source_root() { return RELPERF_SOURCE_ROOT; }

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open fixture " << path;
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

std::vector<lint::Diagnostic> lint_fixture(const std::string& name) {
    const std::string path = fixture_dir() + "/" + name;
    return lint::lint_source(name, read_file(path));
}

struct Expected {
    std::size_t line;
    const char* rule;
    const char* subject;
};

void expect_exact(const std::vector<lint::Diagnostic>& diags,
                  const std::vector<Expected>& expected) {
    ASSERT_EQ(diags.size(), expected.size()) << [&] {
        std::ostringstream out;
        for (const lint::Diagnostic& d : diags) out << d.str() << '\n';
        return out.str();
    }();
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(diags[i].line, expected[i].line) << diags[i].str();
        EXPECT_EQ(diags[i].rule, expected[i].rule) << diags[i].str();
        EXPECT_EQ(diags[i].subject, expected[i].subject) << diags[i].str();
    }
}

} // namespace

TEST(LintRules, TableHasUniqueIdsAndDocumentedSeverities) {
    std::set<std::string> ids;
    for (const lint::RuleInfo& rule : lint::rules()) {
        EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate id " << rule.id;
    }
    EXPECT_EQ(ids.count("banned-random"), 1u);
    EXPECT_EQ(ids.count("banned-clock"), 1u);
    EXPECT_EQ(ids.count("unordered-output"), 1u);
    EXPECT_EQ(ids.count("unsorted-dir-iteration"), 1u);
    EXPECT_EQ(ids.count("float-precision"), 1u);
    EXPECT_EQ(ids.count("omp-guard"), 1u);
    EXPECT_EQ(ids.count("spec-hash-field"), 1u);
    EXPECT_EQ(ids.count("allowlist-unused"), 1u);
}

TEST(BannedRandom, FixtureViolationsExactLines) {
    expect_exact(lint_fixture("banned_random_bad.cpp"),
                 {{7, "banned-random", "random_device"},
                  {8, "banned-random", "srand"},
                  {9, "banned-random", "rand"},
                  {10, "banned-random", "drand48"}});
}

TEST(BannedRandom, CleanFixtureIsQuiet) {
    EXPECT_TRUE(lint_fixture("banned_random_clean.cpp").empty());
}

TEST(BannedClock, FixtureViolationsExactLines) {
    expect_exact(lint_fixture("banned_clock_bad.cpp"),
                 {{9, "banned-clock", "steady_clock::now"},
                  {10, "banned-clock", "system_clock::now"},
                  {11, "banned-clock", "high_resolution_clock::now"},
                  {12, "banned-clock", "time"},
                  {13, "banned-clock", "clock"},
                  {15, "banned-clock", "timespec_get"}});
}

TEST(BannedClock, CleanFixtureIsQuiet) {
    EXPECT_TRUE(lint_fixture("banned_clock_clean.cpp").empty());
}

TEST(BannedClock, ObsClockFixtureFiresOnItsSingleReadSite) {
    expect_exact(lint_fixture("banned_clock_obs.cpp"),
                 {{11, "banned-clock", "steady_clock::now"}});
}

TEST(UnorderedOutput, FixtureViolationsExactLines) {
    const std::vector<lint::Diagnostic> diags =
        lint_fixture("unordered_output_bad.cpp");
    expect_exact(diags, {{10, "unordered-output", "scores"},
                         {17, "unordered-output", "hosts"}});
    for (const lint::Diagnostic& d : diags) {
        EXPECT_EQ(d.severity, lint::Severity::Warning) << d.str();
    }
}

TEST(UnorderedOutput, CleanFixtureIsQuiet) {
    EXPECT_TRUE(lint_fixture("unordered_output_clean.cpp").empty());
}

TEST(DirIteration, FixtureViolationsExactLines) {
    const std::vector<lint::Diagnostic> diags =
        lint_fixture("dir_iteration_bad.cpp");
    expect_exact(diags,
                 {{11, "unsorted-dir-iteration", "directory_iterator"},
                  {18, "unsorted-dir-iteration", "paths"}});
    for (const lint::Diagnostic& d : diags) {
        EXPECT_EQ(d.severity, lint::Severity::Warning) << d.str();
    }
}

TEST(DirIteration, CollectThenSortIdiomIsQuiet) {
    EXPECT_TRUE(lint_fixture("dir_iteration_clean.cpp").empty());
}

TEST(FloatPrecision, FixtureViolationsExactLines) {
    expect_exact(lint_fixture("float_precision_bad.cpp"),
                 {{11, "float-precision", "%g"},
                  {12, "float-precision", "%12f"},
                  {13, "float-precision", "%e"},
                  {14, "float-precision", "%G"}});
}

TEST(FloatPrecision, CleanFixtureIsQuiet) {
    EXPECT_TRUE(lint_fixture("float_precision_clean.cpp").empty());
}

TEST(OmpGuard, FixtureViolationsExactLines) {
    expect_exact(lint_fixture("omp_guard_bad.cpp"),
                 {{3, "omp-guard", "omp.h"},
                  {6, "omp-guard", "omp_get_max_threads"},
                  {13, "omp-guard", "omp_get_thread_num"}});
}

TEST(OmpGuard, CleanFixtureIsQuiet) {
    EXPECT_TRUE(lint_fixture("omp_guard_clean.cpp").empty());
}

TEST(SpecHashField, ParsedButUnhashedKeysAreFlagged) {
    expect_exact(lint_fixture("spec_hash_bad.cpp"),
                 {{20, "spec-hash-field", "campaign"},
                  {24, "spec-hash-field", "warmup"}});
}

TEST(SpecHashField, KeysDispatchedInSetAreFlagged) {
    // parse() hands every line to set(); the rule must follow the dispatch
    // there instead of passing a parse() with no key comparisons.
    expect_exact(lint_fixture("spec_hash_set_bad.cpp"),
                 {{25, "spec-hash-field", "warmup"}});
}

TEST(SpecHashField, AbbreviatedHashLiteralCoversLongKey) {
    // Only the (allowlistable) label field fires; measurements and the
    // abbreviated-literal adaptive key are covered.
    expect_exact(lint_fixture("spec_hash_clean.cpp"),
                 {{21, "spec-hash-field", "campaign"}});
}

TEST(Allowlist, SuppressesByFileSuffixAndSubjectWithoutStaleEntries) {
    const lint::Allowlist allow =
        lint::Allowlist::load(fixture_dir() + "/fixture_allow.txt");
    const lint::LintResult result =
        lint::lint_paths(fixture_dir(), {"."}, allow);

    // All banned_clock_bad.cpp and banned_clock_obs.cpp diagnostics
    // suppressed by their file entries; both fixture specs' 'campaign'
    // fields suppressed by the subject entry.
    EXPECT_EQ(result.allowed.size(), 9u);
    for (const lint::Diagnostic& d : result.allowed) {
        EXPECT_TRUE(d.file == "banned_clock_bad.cpp" ||
                    d.file == "banned_clock_obs.cpp" ||
                    d.subject == "campaign")
            << d.str();
    }
    // Everything else still fires, and no entry is stale.
    EXPECT_EQ(result.diagnostics.size(), 17u) << [&] {
        std::ostringstream out;
        for (const lint::Diagnostic& d : result.diagnostics)
            out << d.str() << '\n';
        return out.str();
    }();
    for (const lint::Diagnostic& d : result.diagnostics) {
        EXPECT_NE(d.rule, "allowlist-unused") << d.str();
        EXPECT_NE(d.file, "banned_clock_bad.cpp") << d.str();
    }
}

TEST(Allowlist, EntryWithoutJustificationIsRejected) {
    EXPECT_THROW(
        (void)lint::Allowlist::load(fixture_dir() +
                                    "/allow_missing_justification.txt"),
        std::runtime_error);
}

TEST(Allowlist, UnknownRuleIdIsRejected) {
    EXPECT_THROW((void)lint::Allowlist::parse(
                     "not-a-rule some_file.cpp # justified\n", "inline"),
                 std::runtime_error);
}

TEST(Allowlist, StaleEntryIsReportedWithItsLine) {
    const lint::Allowlist allow = lint::Allowlist::parse(
        "banned-random never_matches.cpp # stale on purpose\n", "inline");
    const lint::LintResult result = lint::lint_paths(
        fixture_dir(), {"banned_clock_clean.cpp"}, allow);
    ASSERT_EQ(result.diagnostics.size(), 1u);
    EXPECT_EQ(result.diagnostics[0].rule, "allowlist-unused");
    EXPECT_EQ(result.diagnostics[0].file, "inline");
    EXPECT_EQ(result.diagnostics[0].line, 1u);
    EXPECT_EQ(result.diagnostics[0].subject, "never_matches.cpp");
}

// Grammar check of the committed allowlist itself: every entry must parse
// (known rule id, exactly one pattern) and carry its justification — a
// malformed line throws here rather than silently suppressing nothing.
TEST(Allowlist, CommittedAllowlistObeysTheGrammar) {
    const lint::Allowlist allow =
        lint::Allowlist::load(source_root() + "/ci/lint_allow.txt");
    EXPECT_GT(allow.size(), 0u);
    for (const lint::AllowEntry& entry : allow.unused()) {
        EXPECT_FALSE(entry.justification.empty())
            << entry.rule << " " << entry.pattern;
    }
}

TEST(Allowlist, MissingLintPathFailsLoudly) {
    EXPECT_THROW((void)lint::lint_paths(fixture_dir(), {"no_such_dir"},
                                        lint::Allowlist{}),
                 std::runtime_error);
}

// The self-check the tentpole exists for: the shipped measurement code
// (src/, tools/, bench/) holds every determinism invariant, modulo the
// justified entries in ci/lint_allow.txt — and every one of those entries
// is still live (allowlist-unused would fire otherwise).
TEST(RealTree, LintsCleanUnderTheCommittedAllowlist) {
    const lint::Allowlist allow =
        lint::Allowlist::load(source_root() + "/ci/lint_allow.txt");
    const lint::LintResult result = lint::lint_paths(
        source_root(), {"src", "tools", "bench"}, allow);
    EXPECT_GT(result.files_scanned, 100u);
    EXPECT_TRUE(result.diagnostics.empty()) << [&] {
        std::ostringstream out;
        for (const lint::Diagnostic& d : result.diagnostics)
            out << d.str() << '\n';
        return out.str();
    }();
    // The sanctioned timing sites really are being suppressed (not silently
    // absent): RealExecutor's and the obs clock's reads must show up as
    // allowlisted.
    bool real_executor_suppressed = false;
    bool obs_clock_suppressed = false;
    for (const lint::Diagnostic& d : result.allowed) {
        if (d.file == "src/sim/real_executor.cpp" &&
            d.rule == "banned-clock") {
            real_executor_suppressed = true;
        }
        if (d.file == "src/obs/clock.cpp" && d.rule == "banned-clock") {
            obs_clock_suppressed = true;
        }
    }
    EXPECT_TRUE(real_executor_suppressed);
    EXPECT_TRUE(obs_clock_suppressed);
}
