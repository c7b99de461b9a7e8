// relbench: the closed-loop benchmark driver of relperf. One op at a time
// through the library entry point relperf_cli --campaign ... --run calls,
// metrics counting on, tracing off. run.py builds it from the checkout and
// passes the paths; BENCHMARK.json at the repository root is the contract.
//
//   relbench --workload fixed|adaptive|cache --seed N --seconds S --trace 0|1
//            --root DIR --refs DIR --work DIR [--commit ID] [--source-digest H]
//   relbench --smoke --root DIR --refs DIR --work DIR
//
// The last stdout line is the result object; the line before it is the
// run's provenance. Progress and diagnostics go to stderr.

#include "workloads.hpp"

#include "obs/obs.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

namespace obs = relperf::obs;
namespace str = relperf::str;
using relbench::Layers;
using relbench::OpOutput;
using relbench::Reference;
using relbench::Workload;
using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    relbench::Paths paths;
    std::string commit = "unknown";
    std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc) throw relperf::InvalidArgument(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = str::parse_u64(value, "--seed");
        } else if (flag == "--seconds") {
            args.seconds = str::parse_double(value, "--seconds");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                throw relperf::InvalidArgument("--trace takes 0 or 1");
            }
            args.trace = value == "1";
        } else if (flag == "--root") {
            args.paths.source_root = value;
        } else if (flag == "--refs") {
            args.paths.refs = value;
        } else if (flag == "--work") {
            args.paths.work = value;
        } else if (flag == "--commit") {
            args.commit = value;
        } else if (flag == "--source-digest") {
            args.source_digest = value;
        } else {
            throw relperf::InvalidArgument("unknown option " + flag);
        }
    }
    if (!args.smoke && args.workload.empty()) {
        throw relperf::InvalidArgument("--workload is required");
    }
    if (args.paths.source_root.empty() || args.paths.refs.empty() ||
        args.paths.work.empty()) {
        throw relperf::InvalidArgument("--root, --refs and --work are required");
    }
    if (!(args.seconds > 0.0)) {
        throw relperf::InvalidArgument("--seconds must be positive");
    }
    return args;
}

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of the whole process (all threads).
double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               1e-6 * static_cast<double>(t.tv_usec);
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

std::string json_number(double value) {
    return std::isfinite(value) ? str::format("%.17g", value) : "0";
}

/// An op that finished, waiting for its reference check.
struct Pending {
    OpOutput out;
    std::vector<std::string> csvs;
    std::string mismatch; ///< Set when the op already failed a check.
};

/// Every op attempted in a run. An op that throws or fails its check
/// counts as failed; neither aborts the run.
class Ledger {
public:
    /// Runs `op`; on success keeps its output for the reference check and
    /// returns a pointer to it, else records the failure and returns null.
    Pending* attempt(const Workload& workload,
                     const std::function<OpOutput()>& op) {
        ++attempted_;
        try {
            OpOutput out = op();
            std::vector<std::string> csvs = workload.render(out);
            pending_.push_back(Pending{std::move(out), std::move(csvs), {}});
            return &pending_.back();
        } catch (const std::exception& e) {
            fail(std::string("op threw: ") + e.what());
            return nullptr;
        }
    }

    void fail(const std::string& why) {
        ++failed_;
        std::fprintf(stderr, "relbench: failed op: %s\n", why.c_str());
    }

    /// Checks every kept op against `refs` (outside any timed region).
    void check(const Workload& workload, const std::vector<Reference>& refs) {
        for (const Pending& op : pending_) {
            std::string why = op.mismatch;
            if (why.empty()) {
                try {
                    why = workload.check(op.out, op.csvs, refs);
                } catch (const std::exception& e) {
                    why = std::string("check threw: ") + e.what();
                }
            }
            if (!why.empty()) fail(why);
        }
        pending_.clear();
    }

    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

private:
    std::deque<Pending> pending_; // stable addresses for attempt()'s result
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

void print_result(bool correct, const Ledger& ledger,
                  const std::vector<Metric>& metrics) {
    std::string line = str::format(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<unsigned long long>(ledger.attempted()),
        static_cast<unsigned long long>(ledger.failed()));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
                ": {\"value\": " + json_number(metrics[i].value) +
                ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

std::string layer_unit(const std::string& name) {
    if (name == "trace_overhead") return "ratio";
    if (name == "comparator.ns_per_call") return "ns";
    if (name == "cache.bytes") return "B";
    const std::string suffix = "_s";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        return "s";
    }
    return "count";
}

/// What the result line does not carry: the run's provenance, the raw
/// (unscaled) timings, and the one counter the benchmark records but does
/// not check.
struct RunFacts {
    std::size_t ops = 0;
    std::string references;
    std::vector<Metric> raw;
    double fixed_n_per_op = 0.0;
    double drawn_per_op = 0.0;
};

void print_provenance(const Args& args, const RunFacts& facts) {
    std::string openmp = "unknown";
    for (const obs::ProvenanceEntry& e : obs::provenance()) {
        if (e.key == "openmp") openmp = e.value;
    }
    std::string raw;
    for (const Metric& metric : facts.raw) {
        raw += (raw.empty() ? "" : ", ") + json_string(metric.name) + ": " +
               json_number(metric.value);
    }
    std::printf(
        "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"ops\": %zu, "
        "\"setups\": %d, \"seconds\": %s, \"trace\": %d, \"nproc\": %u, "
        "\"compiler\": %s, \"cxx_flags\": %s, \"build_type\": %s, "
        "\"openmp\": %s, \"git_commit\": %s, \"source_digest\": %s, "
        "\"references\": %s, \"raw\": {%s}, \"known_discrepancy\": "
        "{\"counter\": \"relperf_samples_fixed_n_total\", \"per_op\": %s, "
        "\"samples_total_per_op\": %s}}}\n",
        json_string(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed), facts.ops, kSetups,
        json_number(args.seconds).c_str(), args.trace ? 1 : 0,
        std::thread::hardware_concurrency(),
        json_string(RELBENCH_COMPILER).c_str(),
        json_string(RELBENCH_CXX_FLAGS).c_str(),
        json_string(RELBENCH_BUILD_TYPE).c_str(), json_string(openmp).c_str(),
        json_string(args.commit).c_str(),
        json_string(args.source_digest).c_str(),
        json_string(facts.references).c_str(), raw.c_str(),
        json_number(facts.fixed_n_per_op).c_str(),
        json_number(facts.drawn_per_op).c_str());
}

/// One timed untraced op.
struct Sample {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double samples = 0.0;
    double calibration_s = 0.0;
};

/// Seconds calibration_seconds() takes on the host the bounds were set on
/// (GCC 12 Release build, 4-vCPU Xeon VM). That shared host's speed drifts
/// by up to 40% between runs, and moves an op and the calibration kernel
/// alike; so each op (and each set-up) is timed in that host's seconds: its
/// measured seconds x this / the mean of the kernel's times right before
/// and after it. The metrics are medians of those; the raw medians go on
/// the provenance line.
constexpr double kReferenceCalibrationS = 0.019;

/// Wall seconds of a fixed CPU kernel shaped like the comparator's inner
/// loop: random gathers from two 30-value samples and a median selection of
/// each resample. The benchmark owns it, so no change to the library moves
/// it, while a slower or faster host moves it as much as an op.
double calibration_seconds() {
    constexpr std::size_t kN = 30;
    constexpr int kRounds = 20000;
    std::array<double, kN> a{};
    std::array<double, kN> b{};
    for (std::size_t i = 0; i < kN; ++i) {
        a[i] = 1.0 + 0.01 * static_cast<double>((i * 7) % kN);
        b[i] = 1.1 + 0.01 * static_cast<double>((i * 11) % kN);
    }
    std::array<double, kN> ra{};
    std::array<double, kN> rb{};
    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    const auto next = [&state] { // splitmix64
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    };
    double sink = 0.0;
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < kN; ++i) {
            ra[i] = a[next() % kN];
            rb[i] = b[next() % kN];
        }
        std::nth_element(ra.begin(), ra.begin() + kN / 2, ra.end());
        std::nth_element(rb.begin(), rb.begin() + kN / 2, rb.end());
        sink += ra[kN / 2] - rb[kN / 2];
    }
    const double elapsed = seconds_since(start);
    static volatile double observed; // keeps the loop from being elided
    observed = sink;
    return elapsed;
}

Pending* timed_op(Workload& workload, Ledger& ledger, std::vector<Sample>& samples) {
    workload.prepare();
    Sample sample;
    const double calibration_before = calibration_seconds();
    Pending* done = ledger.attempt(workload, [&] {
        const double cpu_start = cpu_seconds();
        const Clock::time_point start = Clock::now();
        OpOutput out = workload.run();
        sample.wall_s = seconds_since(start);
        sample.cpu_s = cpu_seconds() - cpu_start;
        return out;
    });
    sample.calibration_s = (calibration_before + calibration_seconds()) / 2.0;
    if (done != nullptr) {
        for (const std::uint64_t n : done->out.samples_drawn) {
            sample.samples += static_cast<double>(n);
        }
        samples.push_back(sample);
    }
    return done;
}

int run_benchmark(const Args& args) {
    const relbench::Size size; // paper defaults
    Ledger ledger;
    std::unique_ptr<Workload> workload;
    std::vector<Reference> refs;
    std::string ref_error;
    std::vector<Sample> setups; // wall_s and calibration_s only
    for (int i = 0; i < kSetups; ++i) {
        Sample setup;
        const double calibration_before = calibration_seconds();
        const Clock::time_point start = Clock::now();
        workload = relbench::make_workload(args.workload, args.seed, size,
                                           args.paths);
        try {
            refs = workload->committed_references();
        } catch (const std::exception& e) {
            ref_error = e.what();
        }
        workload->prepare();
        (void)ledger.attempt(*workload, [&] { return workload->run(); });
        setup.wall_s = seconds_since(start);
        setup.calibration_s = (calibration_before + calibration_seconds()) / 2.0;
        setups.push_back(setup);
        std::fprintf(stderr, "relbench: %s setup %d: %.3f s\n",
                     args.workload.c_str(), i + 1, setup.wall_s);
    }
    RunFacts facts;
    facts.references = refs.empty() ? "independent" : "committed";

    const obs::Metrics& m = obs::metrics();
    const std::uint64_t fixed_n_before = m.samples_fixed_n_total.value();
    const std::uint64_t drawn_before = m.samples_total.value();
    std::vector<Sample> untraced;
    std::vector<double> traced_walls;
    std::vector<Layers> traced;
    const Clock::time_point loop_start = Clock::now();
    while (untraced.empty() || seconds_since(loop_start) < args.seconds) {
        const Pending* plain = timed_op(*workload, ledger, untraced);
        if (!args.trace) continue;
        workload->prepare();
        Layers layers;
        Pending* done = ledger.attempt(
            *workload, [&] { return workload->run_traced(layers); });
        if (done == nullptr) continue;
        if (plain == nullptr || done->csvs != plain->csvs ||
            done->out.samples_drawn != plain->out.samples_drawn ||
            done->out.rounds != plain->out.rounds) {
            done->mismatch = "the traced op did not reproduce the untraced "
                             "op's clustering, sample counts and rounds";
        }
        traced_walls.push_back(layers["traced_wall_s"]);
        traced.push_back(std::move(layers));
    }
    facts.ops = untraced.size() + traced.size();
    const double ops = static_cast<double>(facts.ops);
    facts.fixed_n_per_op =
        static_cast<double>(m.samples_fixed_n_total.value() - fixed_n_before) / ops;
    facts.drawn_per_op =
        static_cast<double>(m.samples_total.value() - drawn_before) / ops;

    // The reference check runs after every timed op.
    if (refs.empty() && ref_error.empty()) {
        try {
            refs = workload->independent_references();
        } catch (const std::exception& e) {
            ref_error = e.what();
        }
    }
    if (!ref_error.empty()) {
        std::fprintf(stderr, "relbench: no usable reference: %s\n",
                     ref_error.c_str());
    }
    ledger.check(*workload, refs);

    // Medians over ops of a Sample field, raw or scaled by each op's own
    // calibration to the reference host's seconds.
    const auto column = [](const std::vector<Sample>& ops,
                           double Sample::*field, bool scaled) {
        std::vector<double> values;
        for (const Sample& s : ops) {
            values.push_back(scaled ? s.*field * kReferenceCalibrationS /
                                          s.calibration_s
                                    : s.*field);
        }
        return median(values);
    };
    const double calibration = column(untraced, &Sample::calibration_s, false);
    facts.raw = {{"wall_s", column(untraced, &Sample::wall_s, false), "s"},
                 {"cpu_s", column(untraced, &Sample::cpu_s, false), "s"},
                 {"setup_s", column(setups, &Sample::wall_s, false), "s"},
                 {"calibration_s", calibration, "s"},
                 {"setup_calibration_s",
                  column(setups, &Sample::calibration_s, false), "s"}};
    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {{"wall_s", column(untraced, &Sample::wall_s, true), "s"},
                   {"cpu_s", column(untraced, &Sample::cpu_s, true), "s"},
                   {"peak_rss_mib", peak_rss_mib(), "MiB"},
                   {"samples_drawn", column(untraced, &Sample::samples, false),
                    "count"},
                   {"setup_s", column(setups, &Sample::wall_s, true), "s"}};
    } else {
        const double untraced_wall = column(untraced, &Sample::wall_s, false);
        for (const std::string& name : relbench::layer_names()) {
            std::vector<double> values;
            for (Layers& layers : traced) values.push_back(layers[name]);
            double value = median(values);
            if (name == "trace_overhead") {
                value = untraced_wall > 0.0
                            ? median(traced_walls) / untraced_wall - 1.0
                            : 0.0;
            } else if (name == "calibration_s") {
                value = calibration;
            }
            metrics.push_back({name, value, layer_unit(name)});
        }
    }
    print_provenance(args, facts);
    const bool correct = ref_error.empty() && ledger.failed() == 0 &&
                         !untraced.empty() && (!args.trace || !traced.empty());
    print_result(correct, ledger, metrics);
    return 0;
}

/// Reduced-size self-test of all three workloads: untraced and traced ops
/// against independently computed references, then the same ops against
/// corrupted references, which must count as failed ops, not crash.
int run_smoke(const Args& args) {
    const relbench::Size size{10, 20};
    std::vector<std::string> problems;
    for (const std::string& name : relbench::workload_names()) {
        const Clock::time_point start = Clock::now();
        std::unique_ptr<Workload> workload =
            relbench::make_workload(name, args.seed, size, args.paths);
        const std::vector<Reference> refs = workload->independent_references();
        std::vector<Sample> samples;
        Ledger good;
        Ledger corrupt;
        Ledger garbage;
        for (Ledger* ledger : {&good, &corrupt, &garbage}) {
            const Pending* plain = timed_op(*workload, *ledger, samples);
            workload->prepare();
            Layers layers;
            Pending* done = ledger->attempt(
                *workload, [&] { return workload->run_traced(layers); });
            if (done != nullptr &&
                (plain == nullptr || done->csvs != plain->csvs)) {
                done->mismatch = "traced op differs from the untraced op";
            }
        }
        good.check(*workload, refs);
        std::vector<Reference> truncated = refs;
        for (Reference& ref : truncated) ref.csv.resize(ref.csv.size() / 2);
        std::fprintf(stderr, "relbench: smoke %s: expecting failed ops "
                             "against corrupted references\n",
                     name.c_str());
        corrupt.check(*workload, truncated);
        std::vector<Reference> unparsable(refs.size(),
                                          Reference{"not,a\nclustering", {}});
        garbage.check(*workload, unparsable);
        if (good.failed() != 0) {
            problems.push_back(name + ": ops fail against the independent "
                                      "references");
        }
        if (corrupt.failed() != corrupt.attempted() ||
            garbage.failed() != garbage.attempted()) {
            problems.push_back(name + ": a corrupted reference was not "
                                      "reported as a failed op");
        }
        std::fprintf(stderr, "relbench: smoke %s: %.2f s\n", name.c_str(),
                     seconds_since(start));
    }
    for (const std::string& problem : problems) {
        std::fprintf(stderr, "relbench: smoke FAILED: %s\n", problem.c_str());
    }
    std::printf("{\"smoke\": %s, \"workloads\": %zu, \"problems\": %zu}\n",
                problems.empty() ? "\"pass\"" : "\"fail\"",
                relbench::workload_names().size(), problems.size());
    return problems.empty() ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    try {
        const Args args = parse_args(argc, argv);
        obs::set_metrics_enabled(true);
        std::filesystem::create_directories(args.paths.work);
        return args.smoke ? run_smoke(args) : run_benchmark(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "relbench: %s\n", e.what());
        return 2;
    }
}
