#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace relperf::lint {

namespace fs = std::filesystem;

const char* to_string(Severity severity) noexcept {
    return severity == Severity::Error ? "error" : "warning";
}

std::string Diagnostic::str() const {
    std::ostringstream out;
    out << file << ':' << line << ": " << to_string(severity) << ": ["
        << rule << "] " << message;
    return out.str();
}

const std::vector<RuleInfo>& rules() {
    static const std::vector<RuleInfo> table = {
        {"banned-random", Severity::Error,
         "nondeterministic randomness source (random_device/rand/srand/...); "
         "use a seeded stats::Rng stream"},
        {"banned-clock", Severity::Error,
         "wall-clock read outside a sanctioned timing site "
         "(time/clock/chrono ::now/omp_get_wtime)"},
        {"unordered-output", Severity::Warning,
         "unordered-container iteration feeding an output sink; iteration "
         "order is implementation-defined"},
        {"float-precision", Severity::Error,
         "%e/%f/%g/%a conversion without an explicit precision; written "
         "doubles must round-trip (%.17g-class)"},
        {"omp-guard", Severity::Error,
         "omp_*() call or <omp.h> include outside #ifdef _OPENMP; serial "
         "builds must compile"},
        {"spec-hash-field", Severity::Error,
         "spec key dispatched in CampaignSpec::parse() or set() but absent "
         "from CampaignSpec::hash(); two plans could share a hash"},
        {"unsorted-dir-iteration", Severity::Warning,
         "directory-iteration results feed an output sink (or are collected "
         "but never sorted); filesystem enumeration order is unspecified"},
        {"allowlist-unused", Severity::Warning,
         "allowlist entry suppressed nothing in this run; remove the stale "
         "suppression"},
    };
    return table;
}

namespace {

Severity rule_severity(const std::string& id) {
    for (const RuleInfo& rule : rules()) {
        if (id == rule.id) return rule.severity;
    }
    return Severity::Error;
}

bool known_rule(const std::string& id) {
    for (const RuleInfo& rule : rules()) {
        if (id == rule.id) return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class TokenKind { Ident, String, Number, Punct };

struct Token {
    TokenKind kind;
    std::string text; // for String: the literal body without quotes
    std::size_t line = 0;
    bool omp_guarded = false; // inside an #ifdef _OPENMP region
};

struct Directive {
    std::string text; // collapsed (splices removed), without leading '#'
    std::size_t line = 0;
    bool omp_guarded = false; // guard state *outside* this directive line
};

struct Lexed {
    std::vector<Token> tokens;
    std::vector<Directive> directives;
};

bool ident_start(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Conditional-compilation state for one #if level.
enum class OmpState { On, Off, Unknown };

OmpState classify_condition(const std::string& directive) {
    // `directive` starts with if/ifdef/ifndef or is an #elif expression.
    const bool mentions = directive.find("_OPENMP") != std::string::npos;
    if (!mentions) return OmpState::Unknown;
    const bool negated = directive.find("ifndef") != std::string::npos ||
                         directive.find("!defined") != std::string::npos ||
                         directive.find("! defined") != std::string::npos;
    return negated ? OmpState::Off : OmpState::On;
}

Lexed lex(const std::string& text) {
    Lexed out;
    std::vector<OmpState> stack;
    const auto guarded = [&stack] {
        return std::any_of(stack.begin(), stack.end(),
                           [](OmpState s) { return s == OmpState::On; });
    };

    std::size_t i = 0;
    std::size_t line = 1;
    const std::size_t n = text.size();
    bool at_line_start = true; // only whitespace seen since the last newline

    const auto push_token = [&](TokenKind kind, std::string tok_text,
                                std::size_t tok_line) {
        out.tokens.push_back(
            Token{kind, std::move(tok_text), tok_line, guarded()});
    };

    while (i < n) {
        const char c = text[i];
        if (c == '\n') {
            ++line;
            ++i;
            at_line_start = true;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Comments.
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            while (i < n && text[i] != '\n') ++i;
            continue;
        }
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            i += 2;
            while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
                if (text[i] == '\n') ++line;
                ++i;
            }
            i = std::min(n, i + 2);
            continue;
        }
        // Preprocessor directive: consume the whole (spliced) line.
        if (c == '#' && at_line_start) {
            const std::size_t directive_line = line;
            std::string collapsed;
            ++i;
            while (i < n) {
                if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
                    i += 2;
                    ++line;
                    collapsed += ' ';
                    continue;
                }
                if (text[i] == '\n') break;
                // Strip // comments inside the directive.
                if (text[i] == '/' && i + 1 < n && text[i + 1] == '/') {
                    while (i < n && text[i] != '\n') ++i;
                    break;
                }
                collapsed += text[i];
                ++i;
            }
            const std::string trimmed_directive = [&collapsed] {
                const std::size_t b = collapsed.find_first_not_of(" \t");
                return b == std::string::npos ? std::string()
                                              : collapsed.substr(b);
            }();
            // Maintain the _OPENMP guard stack before recording, so the
            // directive itself reports the state *outside* its own region
            // (an `#ifdef _OPENMP` line is not guarded; its body is).
            const bool outer = guarded();
            if (trimmed_directive.rfind("ifdef", 0) == 0 ||
                trimmed_directive.rfind("ifndef", 0) == 0 ||
                trimmed_directive.rfind("if", 0) == 0) {
                stack.push_back(classify_condition(trimmed_directive));
            } else if (trimmed_directive.rfind("elif", 0) == 0) {
                if (!stack.empty()) {
                    stack.back() = classify_condition(trimmed_directive);
                }
            } else if (trimmed_directive.rfind("else", 0) == 0) {
                if (!stack.empty()) {
                    if (stack.back() == OmpState::On) {
                        stack.back() = OmpState::Off;
                    } else if (stack.back() == OmpState::Off) {
                        stack.back() = OmpState::On;
                    }
                }
            } else if (trimmed_directive.rfind("endif", 0) == 0) {
                if (!stack.empty()) stack.pop_back();
            }
            out.directives.push_back(
                Directive{trimmed_directive, directive_line, outer});
            continue;
        }
        at_line_start = false;
        // Raw string literal: [u8|u|U|L]R"delim( ... )delim"
        if (ident_start(c)) {
            std::size_t j = i;
            while (j < n && ident_char(text[j])) ++j;
            const std::string word = text.substr(i, j - i);
            const bool raw_prefix = word == "R" || word == "u8R" ||
                                    word == "uR" || word == "UR" ||
                                    word == "LR";
            if (raw_prefix && j < n && text[j] == '"') {
                const std::size_t open_line = line;
                std::size_t k = j + 1;
                std::string delim;
                while (k < n && text[k] != '(') delim += text[k++];
                const std::string closer = ")" + delim + "\"";
                const std::size_t body_begin = k + 1;
                const std::size_t end = text.find(closer, body_begin);
                const std::size_t body_end = end == std::string::npos ? n : end;
                const std::string body =
                    text.substr(body_begin, body_end - body_begin);
                line += static_cast<std::size_t>(
                    std::count(text.begin() + static_cast<std::ptrdiff_t>(i),
                               text.begin() + static_cast<std::ptrdiff_t>(
                                                  std::min(n, body_end)),
                               '\n'));
                push_token(TokenKind::String, body, open_line);
                i = body_end == n ? n : body_end + closer.size();
                continue;
            }
            push_token(TokenKind::Ident, word, line);
            i = j;
            continue;
        }
        if (c == '"') {
            const std::size_t open_line = line;
            std::string body;
            ++i;
            while (i < n && text[i] != '"') {
                if (text[i] == '\\' && i + 1 < n) {
                    body += text[i];
                    body += text[i + 1];
                    i += 2;
                    continue;
                }
                if (text[i] == '\n') ++line; // unterminated; keep counting
                body += text[i++];
            }
            if (i < n) ++i; // closing quote
            push_token(TokenKind::String, body, open_line);
            continue;
        }
        if (c == '\'') {
            ++i;
            while (i < n && text[i] != '\'') {
                if (text[i] == '\\' && i + 1 < n) {
                    i += 2;
                    continue;
                }
                ++i;
            }
            if (i < n) ++i;
            continue; // char literals carry nothing the rules need
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
            std::size_t j = i;
            while (j < n) {
                const char d = text[j];
                if (ident_char(d) || d == '.' || d == '\'') {
                    ++j;
                    continue;
                }
                if ((d == '+' || d == '-') && j > i) {
                    const char prev = text[j - 1];
                    if (prev == 'e' || prev == 'E' || prev == 'p' ||
                        prev == 'P') {
                        ++j;
                        continue;
                    }
                }
                break;
            }
            push_token(TokenKind::Number, text.substr(i, j - i), line);
            i = j;
            continue;
        }
        // Punctuation. Multi-char tokens the rules care about: :: and <<.
        if (c == ':' && i + 1 < n && text[i + 1] == ':') {
            push_token(TokenKind::Punct, "::", line);
            i += 2;
            continue;
        }
        if (c == '<' && i + 1 < n && text[i + 1] == '<') {
            push_token(TokenKind::Punct, "<<", line);
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && text[i + 1] == '>') {
            push_token(TokenKind::Punct, "->", line);
            i += 2;
            continue;
        }
        if (c == '=' && i + 1 < n && text[i + 1] == '=') {
            push_token(TokenKind::Punct, "==", line);
            i += 2;
            continue;
        }
        push_token(TokenKind::Punct, std::string(1, c), line);
        ++i;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

bool is_ident(const std::vector<Token>& toks, std::size_t i,
              const char* text) {
    return i < toks.size() && toks[i].kind == TokenKind::Ident &&
           toks[i].text == text;
}

bool is_punct(const std::vector<Token>& toks, std::size_t i,
              const char* text) {
    return i < toks.size() && toks[i].kind == TokenKind::Punct &&
           toks[i].text == text;
}

/// Index just past the token matching the opener at `open` ("("/"{"), or
/// toks.size() when unbalanced.
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                          const char* opener, const char* closer) {
    std::size_t depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (is_punct(toks, i, opener)) ++depth;
        if (is_punct(toks, i, closer)) {
            if (--depth == 0) return i + 1;
        }
    }
    return toks.size();
}

void add(std::vector<Diagnostic>& diags, const std::string& path,
         std::size_t line, const char* rule, std::string subject,
         std::string message) {
    diags.push_back(Diagnostic{path, line, rule, rule_severity(rule),
                               std::move(subject), std::move(message)});
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

void check_banned_random(const std::vector<Token>& toks,
                         const std::string& path,
                         std::vector<Diagnostic>& diags) {
    static const std::set<std::string> called = {
        "rand",    "srand",   "random",  "srandom",
        "rand_r",  "drand48", "lrand48", "mrand48",
    };
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Ident) continue;
        if (toks[i].text == "random_device") {
            add(diags, path, toks[i].line, "banned-random", toks[i].text,
                "std::random_device is nondeterministic by design; seed a "
                "stats::Rng stream instead");
            continue;
        }
        if (called.count(toks[i].text) && is_punct(toks, i + 1, "(") &&
            !(i > 0 &&
              (is_punct(toks, i - 1, ".") || is_punct(toks, i - 1, "->")))) {
            add(diags, path, toks[i].line, "banned-random", toks[i].text,
                toks[i].text +
                    "() draws from hidden global state; use a seeded "
                    "stats::Rng stream");
        }
    }
}

void check_banned_clock(const std::vector<Token>& toks,
                        const std::string& path,
                        std::vector<Diagnostic>& diags) {
    static const std::set<std::string> direct = {
        "clock_gettime", "gettimeofday", "timespec_get", "ftime",
        "omp_get_wtime",
    };
    static const std::set<std::string> chrono_clocks = {
        "steady_clock", "system_clock", "high_resolution_clock",
    };
    // Keywords that legitimately precede a call expression; any *other*
    // identifier before `time(`/`clock(` means a declaration (`double
    // time() const`), not a call of the libc function.
    static const std::set<std::string> expr_keywords = {
        "return", "case", "else", "do", "throw", "co_return", "co_await",
        "co_yield"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Ident) continue;
        const bool member_access =
            i > 0 && (is_punct(toks, i - 1, ".") || is_punct(toks, i - 1, "->"));
        const bool declaration =
            i > 0 && toks[i - 1].kind == TokenKind::Ident &&
            !expr_keywords.count(toks[i - 1].text);
        if (direct.count(toks[i].text) && is_punct(toks, i + 1, "(")) {
            add(diags, path, toks[i].line, "banned-clock", toks[i].text,
                toks[i].text + "() reads the wall clock; only sanctioned "
                               "timing sites may (allowlist per file)");
            continue;
        }
        if ((toks[i].text == "time" || toks[i].text == "clock") &&
            is_punct(toks, i + 1, "(") && !member_access && !declaration) {
            add(diags, path, toks[i].line, "banned-clock", toks[i].text,
                toks[i].text + "() reads the wall clock; only sanctioned "
                               "timing sites may (allowlist per file)");
            continue;
        }
        if (chrono_clocks.count(toks[i].text) && is_punct(toks, i + 1, "::") &&
            is_ident(toks, i + 2, "now")) {
            add(diags, path, toks[i].line, "banned-clock",
                toks[i].text + "::now",
                "std::chrono::" + toks[i].text +
                    "::now() outside a sanctioned timing site (allowlist "
                    "per file)");
        }
    }
}

void check_unordered_output(const std::vector<Token>& toks,
                            const std::string& path,
                            std::vector<Diagnostic>& diags) {
    static const std::set<std::string> unordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    static const std::set<std::string> sinks = {
        "add_row", "format",  "printf", "fprintf",   "snprintf",
        "write",   "write_row", "write_csv", "hash", "fnv1a",  "update"};

    // Pass 1: names declared (or returned) with an unordered type.
    std::set<std::string> names;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Ident || !unordered.count(toks[i].text)) {
            continue;
        }
        std::size_t j = i + 1;
        if (is_punct(toks, j, "<")) {
            std::size_t depth = 0;
            for (; j < toks.size(); ++j) {
                if (is_punct(toks, j, "<")) ++depth;
                if (is_punct(toks, j, ">") && --depth == 0) {
                    ++j;
                    break;
                }
            }
        }
        // Skip ref/pointer decorations: `const unordered_map<...>& name`.
        while (j < toks.size() &&
               (is_punct(toks, j, "&") || is_punct(toks, j, "*"))) {
            ++j;
        }
        if (j < toks.size() && toks[j].kind == TokenKind::Ident) {
            names.insert(toks[j].text);
        }
    }
    if (names.empty()) return;

    // Pass 2: range-for over one of those names with an output sink inside.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!is_ident(toks, i, "for") || !is_punct(toks, i + 1, "(")) continue;
        const std::size_t close = match_forward(toks, i + 1, "(", ")");
        // The range-for ':' sits at parenthesis depth 1.
        std::size_t colon = 0;
        std::size_t depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
            if (is_punct(toks, j, "(")) ++depth;
            if (is_punct(toks, j, ")")) --depth;
            if (depth == 1 && is_punct(toks, j, ":")) {
                colon = j;
                break;
            }
        }
        if (colon == 0) continue;
        std::string container;
        for (std::size_t j = colon + 1; j + 1 < close; ++j) {
            if (toks[j].kind == TokenKind::Ident && names.count(toks[j].text)) {
                container = toks[j].text;
                break;
            }
        }
        if (container.empty()) continue;
        // Loop body: braced block, or a single statement up to ';'.
        std::size_t body_begin = close;
        std::size_t body_end;
        if (is_punct(toks, body_begin, "{")) {
            body_end = match_forward(toks, body_begin, "{", "}");
        } else {
            body_end = body_begin;
            while (body_end < toks.size() && !is_punct(toks, body_end, ";")) {
                ++body_end;
            }
        }
        for (std::size_t j = body_begin; j < body_end; ++j) {
            const bool stream_write = is_punct(toks, j, "<<");
            const bool sink_call = toks[j].kind == TokenKind::Ident &&
                                   sinks.count(toks[j].text) &&
                                   is_punct(toks, j + 1, "(");
            if (stream_write || sink_call) {
                add(diags, path, toks[i].line, "unordered-output", container,
                    "iteration over unordered container '" + container +
                        "' feeds an output sink; order is "
                        "implementation-defined — sort first");
                break;
            }
        }
    }
}

void check_unsorted_dir_iteration(const std::vector<Token>& toks,
                                  const std::string& path,
                                  std::vector<Diagnostic>& diags) {
    static const std::set<std::string> iterators = {
        "directory_iterator", "recursive_directory_iterator"};
    static const std::set<std::string> sinks = {
        "add_row", "format",  "printf", "fprintf",   "snprintf",
        "write",   "write_row", "write_csv", "hash", "fnv1a",  "update"};
    static const std::set<std::string> collectors = {
        "push_back", "emplace_back", "insert", "emplace"};

    // Names that appear as an argument of an explicit sort call anywhere in
    // the file — the collect-then-sort idiom this rule demands.
    std::set<std::string> sorted_names;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Ident ||
            (toks[i].text != "sort" && toks[i].text != "stable_sort") ||
            !is_punct(toks, i + 1, "(")) {
            continue;
        }
        const std::size_t close = match_forward(toks, i + 1, "(", ")");
        for (std::size_t j = i + 2; j < close; ++j) {
            if (toks[j].kind == TokenKind::Ident) {
                sorted_names.insert(toks[j].text);
            }
        }
    }

    // Range-for loops whose range expression is a directory iterator.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!is_ident(toks, i, "for") || !is_punct(toks, i + 1, "(")) continue;
        const std::size_t close = match_forward(toks, i + 1, "(", ")");
        std::size_t colon = 0;
        std::size_t depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
            if (is_punct(toks, j, "(")) ++depth;
            if (is_punct(toks, j, ")")) --depth;
            if (depth == 1 && is_punct(toks, j, ":")) {
                colon = j;
                break;
            }
        }
        if (colon == 0) continue;
        std::string iterator;
        for (std::size_t j = colon + 1; j + 1 < close; ++j) {
            if (toks[j].kind == TokenKind::Ident &&
                iterators.count(toks[j].text)) {
                iterator = toks[j].text;
                break;
            }
        }
        if (iterator.empty()) continue;
        // Loop body: braced block, or a single statement up to ';'.
        std::size_t body_begin = close;
        std::size_t body_end;
        if (is_punct(toks, body_begin, "{")) {
            body_end = match_forward(toks, body_begin, "{", "}");
        } else {
            body_end = body_begin;
            while (body_end < toks.size() && !is_punct(toks, body_end, ";")) {
                ++body_end;
            }
        }
        bool has_sink = false;
        std::set<std::string> collected;
        for (std::size_t j = body_begin; j < body_end; ++j) {
            if (is_punct(toks, j, "<<") ||
                (toks[j].kind == TokenKind::Ident &&
                 sinks.count(toks[j].text) && is_punct(toks, j + 1, "("))) {
                has_sink = true;
                break;
            }
            if (toks[j].kind == TokenKind::Ident && j + 2 < body_end &&
                is_punct(toks, j + 1, ".") &&
                toks[j + 2].kind == TokenKind::Ident &&
                collectors.count(toks[j + 2].text) &&
                is_punct(toks, j + 3, "(")) {
                collected.insert(toks[j].text);
            }
        }
        if (has_sink) {
            add(diags, path, toks[i].line, "unsorted-dir-iteration", iterator,
                "directory iteration feeds an output sink; enumeration order "
                "is unspecified — collect the entries and sort them first");
            continue;
        }
        for (const std::string& name : collected) {
            if (!sorted_names.count(name)) {
                add(diags, path, toks[i].line, "unsorted-dir-iteration", name,
                    "directory iteration collects into '" + name +
                        "' which is never explicitly sorted; enumeration "
                        "order is unspecified — sort before consuming it");
            }
        }
    }
}

void check_float_precision(const std::vector<Token>& toks,
                           const std::string& path,
                           std::vector<Diagnostic>& diags) {
    static const std::set<std::string> formatters = {
        "format", "printf", "fprintf", "snprintf", "sprintf",
        "vprintf", "vfprintf", "vsnprintf"};
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Ident ||
            !formatters.count(toks[i].text) || !is_punct(toks, i + 1, "(")) {
            continue;
        }
        const std::size_t close = match_forward(toks, i + 1, "(", ")");
        for (std::size_t j = i + 1; j < close; ++j) {
            if (toks[j].kind != TokenKind::String) continue;
            const std::string& s = toks[j].text;
            for (std::size_t k = 0; k < s.size(); ++k) {
                if (s[k] != '%') continue;
                std::size_t m = k + 1;
                if (m < s.size() && s[m] == '%') {
                    k = m;
                    continue;
                }
                while (m < s.size() && (s[m] == '-' || s[m] == '+' ||
                                        s[m] == ' ' || s[m] == '#' ||
                                        s[m] == '0' || s[m] == '\'')) {
                    ++m;
                }
                while (m < s.size() &&
                       (std::isdigit(static_cast<unsigned char>(s[m])) ||
                        s[m] == '*')) {
                    ++m;
                }
                bool has_precision = false;
                if (m < s.size() && s[m] == '.') {
                    has_precision = true;
                    ++m;
                    while (m < s.size() &&
                           (std::isdigit(static_cast<unsigned char>(s[m])) ||
                            s[m] == '*')) {
                        ++m;
                    }
                }
                while (m < s.size() && (s[m] == 'h' || s[m] == 'l' ||
                                        s[m] == 'j' || s[m] == 'z' ||
                                        s[m] == 't' || s[m] == 'L')) {
                    ++m;
                }
                if (m < s.size() && !has_precision &&
                    std::string("efgaEFGA").find(s[m]) != std::string::npos) {
                    const std::string spec = s.substr(k, m - k + 1);
                    add(diags, path, toks[j].line, "float-precision", spec,
                        "'" + spec + "' has no explicit precision; default "
                        "(6) truncates doubles — use a %.17g-class spec");
                }
                k = m;
            }
        }
    }
}

void check_omp_guard(const Lexed& lexed, const std::string& path,
                     std::vector<Diagnostic>& diags) {
    const std::vector<Token>& toks = lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Ident ||
            toks[i].text.rfind("omp_", 0) != 0 || !is_punct(toks, i + 1, "(")) {
            continue;
        }
        if (!toks[i].omp_guarded) {
            add(diags, path, toks[i].line, "omp-guard", toks[i].text,
                toks[i].text +
                    "() outside #ifdef _OPENMP; serial builds cannot link it");
        }
    }
    for (const Directive& d : lexed.directives) {
        if (d.text.rfind("include", 0) == 0 &&
            d.text.find("omp.h") != std::string::npos && !d.omp_guarded) {
            add(diags, path, d.line, "omp-guard", "omp.h",
                "#include <omp.h> outside #ifdef _OPENMP; serial builds "
                "cannot compile it");
        }
    }
}

/// [begin, end) token range of `CampaignSpec::name`'s body, or {0, 0}.
std::pair<std::size_t, std::size_t>
method_body(const std::vector<Token>& toks, const char* name) {
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!is_ident(toks, i, "CampaignSpec") || !is_punct(toks, i + 1, "::") ||
            !is_ident(toks, i + 2, name)) {
            continue;
        }
        std::size_t j = i + 3;
        while (j < toks.size() && !is_punct(toks, j, "(")) ++j;
        j = match_forward(toks, j, "(", ")");
        // Skip const/noexcept/trailing bits until the body or a ';' (decl).
        while (j < toks.size() && !is_punct(toks, j, "{") &&
               !is_punct(toks, j, ";")) {
            ++j;
        }
        if (j >= toks.size() || is_punct(toks, j, ";")) continue;
        return {j, match_forward(toks, j, "{", "}")};
    }
    return {0, 0};
}

void check_spec_hash_fields(const std::vector<Token>& toks,
                            const std::string& path,
                            std::vector<Diagnostic>& diags) {
    const auto [hash_begin, hash_end] = method_body(toks, "hash");
    if (hash_begin == hash_end) return;

    // Words appearing in any string literal inside hash().
    std::set<std::string> hash_words;
    for (std::size_t i = hash_begin; i < hash_end; ++i) {
        if (toks[i].kind != TokenKind::String) continue;
        const std::string& s = toks[i].text;
        std::string word;
        for (const char c : s) {
            if (ident_char(c)) {
                word += c;
            } else if (!word.empty()) {
                hash_words.insert(word);
                word.clear();
            }
        }
        if (!word.empty()) hash_words.insert(word);
    }

    // Keys compared against `key` in parse() and in set(), the key dispatch
    // parse() calls.
    for (const char* method : {"parse", "set"}) {
        const auto [begin, end] = method_body(toks, method);
        for (std::size_t i = begin; i + 2 < end; ++i) {
            if (!is_ident(toks, i, "key") || !is_punct(toks, i + 1, "==") ||
                toks[i + 2].kind != TokenKind::String) {
                continue;
            }
            const std::string& key = toks[i + 2].text;
            bool covered = false;
            for (const std::string& word : hash_words) {
                // Exact, or the hash uses an abbreviated field name
                // ("adaptive_min" covers "adaptive_min_measurements"); the
                // 4-char floor keeps incidental short words from matching.
                if (word == key ||
                    (word.size() >= 4 && key.rfind(word, 0) == 0)) {
                    covered = true;
                    break;
                }
            }
            if (!covered) {
                add(diags, path, toks[i + 2].line, "spec-hash-field", key,
                    "spec key '" + key +
                        "' is parsed but never contributes to "
                        "CampaignSpec::hash(); hash it or allowlist it with "
                        "a justification");
            }
        }
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

Allowlist Allowlist::parse(const std::string& text, const std::string& source) {
    Allowlist out;
    out.source_ = source;
    std::istringstream in(text);
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        std::string entry_text = line;
        std::string justification;
        const std::size_t hash_pos = entry_text.find('#');
        if (hash_pos != std::string::npos) {
            justification = entry_text.substr(hash_pos + 1);
            entry_text.resize(hash_pos);
        }
        std::istringstream fields(entry_text);
        std::string rule;
        std::string pattern;
        std::string extra;
        fields >> rule >> pattern >> extra;
        if (rule.empty() && pattern.empty()) continue; // blank / comment-only
        const auto fail = [&](const std::string& message) {
            std::ostringstream msg;
            msg << source << ':' << line_number << ": " << message;
            throw std::runtime_error(msg.str());
        };
        if (pattern.empty()) fail("allowlist entry needs '<rule> <pattern>'");
        if (!extra.empty()) {
            fail("allowlist entry has trailing fields ('" + extra +
                 "'); one pattern per entry, justification after '#'");
        }
        if (!known_rule(rule)) fail("unknown rule id '" + rule + "'");
        const std::size_t j = justification.find_first_not_of(" \t");
        if (j == std::string::npos) {
            fail("allowlist entry for '" + rule +
                 "' is missing its justification comment ('# why')");
        }
        out.entries_.push_back(
            AllowEntry{rule, pattern, justification.substr(j), line_number});
    }
    out.used_.assign(out.entries_.size(), false);
    return out;
}

Allowlist Allowlist::load(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot open allowlist '" + path + "'");
    }
    std::ostringstream content;
    content << in.rdbuf();
    return parse(content.str(), path);
}

bool Allowlist::allows(const Diagnostic& diagnostic) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const AllowEntry& entry = entries_[i];
        if (entry.rule != diagnostic.rule) continue;
        const std::string& p = entry.pattern;
        const bool subject_match = p == diagnostic.subject;
        const bool suffix_match =
            diagnostic.file.size() >= p.size() &&
            diagnostic.file.compare(diagnostic.file.size() - p.size(),
                                    p.size(), p) == 0;
        const bool dir_match =
            !p.empty() && p.back() == '/' && diagnostic.file.rfind(p, 0) == 0;
        if (subject_match || suffix_match || dir_match) {
            used_[i] = true;
            return true;
        }
    }
    return false;
}

std::vector<AllowEntry> Allowlist::unused() const {
    std::vector<AllowEntry> out;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (!used_[i]) out.push_back(entries_[i]);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& text) {
    const Lexed lexed = lex(text);
    std::vector<Diagnostic> diags;
    check_banned_random(lexed.tokens, path, diags);
    check_banned_clock(lexed.tokens, path, diags);
    check_unordered_output(lexed.tokens, path, diags);
    check_unsorted_dir_iteration(lexed.tokens, path, diags);
    check_float_precision(lexed.tokens, path, diags);
    check_omp_guard(lexed, path, diags);
    check_spec_hash_fields(lexed.tokens, path, diags);
    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                         return a.line < b.line;
                     });
    return diags;
}

namespace {

bool lintable_extension(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
           ext == ".cxx" || ext == ".hxx";
}

std::string read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot read '" + p.string() + "'");
    }
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

} // namespace

LintResult lint_paths(const std::string& root,
                      const std::vector<std::string>& paths,
                      const Allowlist& allow) {
    const fs::path base(root);
    std::vector<fs::path> files;
    for (const std::string& p : paths) {
        const fs::path full = base / p;
        if (fs::is_directory(full)) {
            for (const auto& entry : fs::recursive_directory_iterator(full)) {
                if (entry.is_regular_file() &&
                    lintable_extension(entry.path())) {
                    files.push_back(entry.path());
                }
            }
        } else if (fs::is_regular_file(full)) {
            files.push_back(full);
        } else {
            throw std::runtime_error("lint path does not exist: '" +
                                     full.string() + "'");
        }
    }
    // Deterministic order whatever the filesystem returns.
    std::sort(files.begin(), files.end());

    LintResult result;
    result.files_scanned = files.size();
    for (const fs::path& file : files) {
        const std::string display =
            fs::relative(file, base).generic_string();
        for (Diagnostic& d : lint_source(display, read_file(file))) {
            if (allow.allows(d)) {
                result.allowed.push_back(std::move(d));
            } else {
                result.diagnostics.push_back(std::move(d));
            }
        }
    }
    for (const AllowEntry& entry : allow.unused()) {
        result.diagnostics.push_back(Diagnostic{
            allow.source(), entry.line, "allowlist-unused", Severity::Warning,
            entry.pattern,
            "allowlist entry '" + entry.rule + " " + entry.pattern +
                "' suppressed nothing; remove the stale suppression"});
    }
    return result;
}

} // namespace relperf::lint
