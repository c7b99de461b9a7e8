#include "campaign/spec.hpp"

#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"
#include "workloads/assignment.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>

namespace relperf::campaign {

const char* to_string(ExecutorKind kind) noexcept {
    return kind == ExecutorKind::Sim ? "sim" : "real";
}

ExecutorKind executor_kind_from_string(const std::string& text) {
    if (text == "sim") return ExecutorKind::Sim;
    if (text == "real") return ExecutorKind::Real;
    throw InvalidArgument("executor must be 'sim' or 'real', got '" + text +
                          "'");
}

const std::vector<std::string>& platform_preset_names() {
    static const std::vector<std::string> names = {
        "paper-cpu-gpu", "rpi-server", "smartphone-gpu", "cpu-only"};
    return names;
}

sim::Platform platform_preset(const std::string& name) {
    if (name == "paper-cpu-gpu") return sim::paper_cpu_gpu_platform();
    if (name == "rpi-server") return sim::rpi_server_platform();
    if (name == "smartphone-gpu") return sim::smartphone_gpu_platform();
    if (name == "cpu-only") return sim::cpu_only_platform();
    throw InvalidArgument("unknown platform preset '" + name + "' (known: " +
                          str::join(platform_preset_names(), ", ") + ")");
}

void CampaignSpec::validate() const {
    RELPERF_REQUIRE(!name.empty(), "campaign: name must not be empty");
    RELPERF_REQUIRE(!sizes.empty(), "campaign: sizes must not be empty");
    for (const std::size_t s : sizes) {
        RELPERF_REQUIRE(s > 0, "campaign: task sizes must be positive");
    }
    RELPERF_REQUIRE(sizes.size() <= 16,
                    "campaign: more than 16 tasks means more than 65536 "
                    "assignments — not a sensible campaign");
    RELPERF_REQUIRE(iters > 0, "campaign: iters must be positive");
    RELPERF_REQUIRE(!backend.empty(), "campaign: backend must not be empty");
    if (!variant_backends.empty()) {
        std::set<std::string> unique;
        for (const std::string& name : variant_backends) {
            RELPERF_REQUIRE(!name.empty(),
                            "campaign: variant_backends entries must not be "
                            "empty");
            RELPERF_REQUIRE(unique.insert(name).second,
                            "campaign: duplicate variant backend '" + name +
                                "'");
        }
        // (2B)^k variants; the same 65536-algorithm ceiling the plain
        // assignment plan has.
        const std::size_t choices = 2 * variant_backends.size();
        std::size_t count = 1;
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            RELPERF_REQUIRE(count <= 65536 / choices,
                            str::format("campaign: (2*%zu)^%zu variants "
                                        "exceed 65536 — not a sensible "
                                        "campaign",
                                        variant_backends.size(), sizes.size()));
            count *= choices;
        }
    }
    RELPERF_REQUIRE(measurements > 0,
                    "campaign: measurements (N) must be positive");
    if (adaptive_min != 0) {
        RELPERF_REQUIRE(adaptive_min <= measurements,
                        "campaign: adaptive_min_measurements must be <= "
                        "measurements (the adaptive cap)");
        RELPERF_REQUIRE(adaptive_batch > 0,
                        "campaign: adaptive_batch must be positive");
        RELPERF_REQUIRE(adaptive_stability > 0,
                        "campaign: adaptive_stability_rounds must be positive");
        if (adaptive_confidence != 0.0) {
            RELPERF_REQUIRE(adaptive_confidence > 0.5 &&
                                adaptive_confidence < 1.0,
                            "campaign: adaptive_confidence must be in "
                            "(0.5, 1)");
        }
    } else {
        // Coordination and confidence describe how adaptive rounds stop;
        // without adaptive_min_measurements they would be silently inert.
        RELPERF_REQUIRE(!adaptive_coordinated,
                        "campaign: adaptive_coordination requires "
                        "adaptive_min_measurements");
        RELPERF_REQUIRE(adaptive_confidence == 0.0,
                        "campaign: adaptive_confidence requires "
                        "adaptive_min_measurements");
    }
    RELPERF_REQUIRE(shards > 0, "campaign: shards (K) must be positive");
    RELPERF_REQUIRE(device_threads >= 0 && accelerator_threads >= 0,
                    "campaign: thread counts must be non-negative");
    // A real executor sleeps each delay through std::chrono, whose integer
    // conversions overflow past INT64_MAX ns; NaN and inf fail the test too.
    for (const auto& [key, delay_us] :
         {std::pair{"dispatch_delay_us", dispatch_delay_us},
          std::pair{"switch_delay_us", switch_delay_us}}) {
        RELPERF_REQUIRE(delay_us >= 0.0 && delay_us * 1e3 < 0x1p63,
                        std::string("campaign: ") + key +
                            " must be finite, >= 0 and at most INT64_MAX ns, got " +
                            str::format("%.17g", delay_us));
    }
    RELPERF_REQUIRE(clustering_repetitions > 0,
                    "campaign: clustering repetitions must be positive");
    RELPERF_REQUIRE(bootstrap_rounds > 0,
                    "campaign: bootstrap rounds must be positive");
    // The comparator adds and subtracts round counts as signed integers.
    constexpr auto max_rounds =
        static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max() / 2);
    RELPERF_REQUIRE(bootstrap_rounds <= max_rounds,
                    "campaign: bootstrap_rounds must be at most " +
                        std::to_string(max_rounds) + " (INT64_MAX / 2)");
    RELPERF_REQUIRE(tie_epsilon >= 0.0, "campaign: tie_epsilon must be >= 0");
    RELPERF_REQUIRE(decision_threshold > 0.5 && decision_threshold <= 1.0,
                    "campaign: decision_threshold must be in (0.5, 1]");
    if (executor == ExecutorKind::Sim) {
        (void)platform_preset(platform); // throws on unknown names
    }
}

std::vector<SpecEntry> CampaignSpec::entries() const {
    std::vector<SpecEntry> out;
    const auto add = [&out](const char* key, std::string value) {
        out.emplace_back(key, std::move(value));
    };
    const auto real = [](double v) { return str::format("%.12g", v); };
    add("campaign", name);
    add("sizes", str::format_size_list(sizes));
    add("iters", std::to_string(iters));
    add("executor", to_string(executor));
    add("platform", platform);
    add("backend", backend);
    // The optional axes appear only when set — the per-task axis, adaptive
    // measurement, and within it coordination and confidence — so specs
    // without them keep their earlier bytes.
    if (!variant_backends.empty()) {
        add("variant_backends", str::join(variant_backends, ","));
    }
    add("measurements", std::to_string(measurements));
    add("measurement_seed", std::to_string(measurement_seed));
    if (adaptive_min != 0) {
        add("adaptive_min_measurements", std::to_string(adaptive_min));
        add("adaptive_batch", std::to_string(adaptive_batch));
        add("adaptive_stability_rounds", std::to_string(adaptive_stability));
        if (adaptive_coordinated) add("adaptive_coordination", "coordinated");
        if (adaptive_confidence != 0.0) {
            add("adaptive_confidence", real(adaptive_confidence));
        }
    }
    add("device_threads", std::to_string(device_threads));
    add("accelerator_threads", std::to_string(accelerator_threads));
    add("dispatch_delay_us", real(dispatch_delay_us));
    add("switch_delay_us", real(switch_delay_us));
    add("warmup", std::to_string(warmup));
    add("shards", std::to_string(shards));
    add("clustering_repetitions", std::to_string(clustering_repetitions));
    add("clustering_seed", std::to_string(clustering_seed));
    add("bootstrap_rounds", std::to_string(bootstrap_rounds));
    add("tie_epsilon", real(tie_epsilon));
    add("decision_threshold", real(decision_threshold));
    return out;
}

std::string CampaignSpec::to_text() const {
    std::string out = "# relperf campaign spec\n";
    for (const auto& [key, value] : entries()) {
        out += key + " = " + value + '\n';
    }
    return out;
}

namespace {

/// An emulated-device team size: it must fit the executor's int, so a huge
/// value is refused instead of wrapping to a small thread count.
int parse_thread_count(const std::string& value, const std::string& key) {
    const std::size_t threads = str::parse_size(value, key);
    if (threads > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
        throw InvalidArgument(str::format("%s must be at most %d, got '%s'",
                                          key.c_str(),
                                          std::numeric_limits<int>::max(),
                                          value.c_str()));
    }
    return static_cast<int>(threads);
}

} // namespace

bool CampaignSpec::set(const std::string& key, const std::string& value) {
    if (key == "campaign") {
        name = value;
    } else if (key == "sizes") {
        sizes = str::parse_size_list(value, key);
    } else if (key == "iters") {
        iters = str::parse_size(value, key);
    } else if (key == "executor") {
        executor = executor_kind_from_string(value);
    } else if (key == "platform") {
        platform = value;
    } else if (key == "backend") {
        backend = value;
    } else if (key == "variant_backends") {
        variant_backends = str::parse_name_list(value, key);
    } else if (key == "measurements") {
        measurements = str::parse_size(value, key);
    } else if (key == "measurement_seed") {
        measurement_seed = str::parse_u64(value, key);
    } else if (key == "adaptive_min_measurements") {
        // An explicit 0 would silently mean "fixed-N" and drop the other
        // adaptive keys on the next round trip: omitting the key is how a
        // spec says adaptive-off.
        adaptive_min = str::parse_positive_size(value, key);
    } else if (key == "adaptive_batch") {
        adaptive_batch = str::parse_positive_size(value, key);
    } else if (key == "adaptive_stability_rounds") {
        adaptive_stability = str::parse_positive_size(value, key);
    } else if (key == "adaptive_coordination") {
        if (value != "coordinated" && value != "shard-local") {
            throw InvalidArgument(
                "adaptive_coordination must be 'coordinated' or "
                "'shard-local', got '" +
                value + "'");
        }
        adaptive_coordinated = value == "coordinated";
    } else if (key == "adaptive_confidence") {
        adaptive_confidence = str::parse_double(value, key);
    } else if (key == "device_threads") {
        device_threads = parse_thread_count(value, key);
    } else if (key == "accelerator_threads") {
        accelerator_threads = parse_thread_count(value, key);
    } else if (key == "dispatch_delay_us") {
        dispatch_delay_us = str::parse_double(value, key);
    } else if (key == "switch_delay_us") {
        switch_delay_us = str::parse_double(value, key);
    } else if (key == "warmup") {
        warmup = str::parse_size(value, key);
    } else if (key == "shards") {
        shards = str::parse_size(value, key);
    } else if (key == "clustering_repetitions") {
        clustering_repetitions = str::parse_size(value, key);
    } else if (key == "clustering_seed") {
        clustering_seed = str::parse_u64(value, key);
    } else if (key == "bootstrap_rounds") {
        bootstrap_rounds = str::parse_size(value, key);
    } else if (key == "tie_epsilon") {
        tie_epsilon = str::parse_double(value, key);
    } else if (key == "decision_threshold") {
        decision_threshold = str::parse_double(value, key);
    } else {
        return false;
    }
    return true;
}

CampaignSpec CampaignSpec::parse(const std::string& text,
                                 const std::string& source) {
    CampaignSpec spec;
    std::istringstream in(text);
    std::string line;
    std::size_t line_number = 0;
    std::set<std::string> seen;

    while (std::getline(in, line)) {
        ++line_number;
        if (line_number == 1 && str::starts_with(line, "\xEF\xBB\xBF")) {
            line.erase(0, 3);
        }
        const std::string_view trimmed = str::trim(line);
        if (trimmed.empty() || trimmed.front() == '#') continue;

        const auto fail = [&](const std::string& message) -> void {
            throw Error(str::format("%s:%zu: %s", source.c_str(), line_number,
                                    message.c_str()));
        };

        const std::size_t eq = trimmed.find('=');
        if (eq == std::string_view::npos) {
            fail("expected 'key = value', got '" + std::string(trimmed) + "'");
        }
        const std::string key(str::trim(trimmed.substr(0, eq)));
        const std::string value(str::trim(trimmed.substr(eq + 1)));
        if (key.empty()) fail("empty key");
        if (!seen.insert(key).second) fail("duplicate key '" + key + "'");

        try {
            if (!spec.set(key, value)) throw Error("unknown key '" + key + "'");
        } catch (const Error& e) {
            // Anchor unknown keys and value errors (parse_size etc.) to
            // file + line.
            fail(e.what());
        }
    }

    // Inert adaptive knobs are almost certainly a typo'd plan: batch and
    // stability do nothing without adaptive_min_measurements, and to_text()
    // would silently drop them on the next round trip.
    if (!seen.count("adaptive_min_measurements")) {
        for (const char* knob : {"adaptive_batch", "adaptive_stability_rounds",
                                 "adaptive_coordination",
                                 "adaptive_confidence"}) {
            if (seen.count(knob)) {
                throw Error(source + ": invalid campaign spec: '" +
                            std::string(knob) +
                            "' requires 'adaptive_min_measurements'");
            }
        }
    }
    try {
        spec.validate();
    } catch (const Error& e) {
        throw Error(source + ": invalid campaign spec: " + e.what());
    }
    return spec;
}

CampaignSpec CampaignSpec::load(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw Error("campaign: cannot open spec '" + path + "'");
    }
    std::ostringstream content;
    content << in.rdbuf();
    return parse(content.str(), path);
}

void CampaignSpec::save(const std::string& path) const {
    validate();
    std::ofstream out(path);
    if (!out) {
        throw Error("campaign: cannot write spec '" + path + "'");
    }
    out << to_text();
    if (!out) {
        throw Error("campaign: failed writing spec '" + path + "'");
    }
}

std::uint64_t CampaignSpec::hash() const {
    // Canonical text of the measurement plan only (see header).
    std::ostringstream plan;
    plan << "sizes=" << str::format_size_list(sizes) << ";iters=" << iters
         << ";executor=" << to_string(executor);
    if (executor == ExecutorKind::Sim) {
        plan << ";platform=" << platform;
    } else {
        plan << ";device_threads=" << device_threads
             << ";accelerator_threads=" << accelerator_threads
             << ";dispatch_delay_us=" << str::format("%.12g", dispatch_delay_us)
             << ";switch_delay_us=" << str::format("%.12g", switch_delay_us)
             << ";warmup=" << warmup;
    }
    plan << ";measurements=" << measurements
         << ";measurement_seed=" << measurement_seed;
    // Backward-compatible hashing: the default backend contributes nothing,
    // so spec files and shard manifests from before the backend axis keep
    // their hashes; any other backend is a different measurement plan.
    if (backend != "portable") plan << ";backend=" << backend;
    // Same rule for the per-task axis: an empty variant_backends list is the
    // pre-variant plan and contributes nothing.
    if (!variant_backends.empty()) {
        plan << ";variant_backends=" << str::join(variant_backends, ",");
    }
    // Adaptive plans measure data-dependent per-algorithm counts, and the
    // stopping rule consults the clusterer — so the adaptive knobs AND the
    // analysis knobs become measurement-determining. Fixed-N specs
    // contribute nothing here, keeping every pre-adaptive hash stable.
    if (adaptive_min != 0) {
        plan << ";adaptive_min=" << adaptive_min
             << ";adaptive_batch=" << adaptive_batch
             << ";adaptive_stability=" << adaptive_stability
             << ";clustering_repetitions=" << clustering_repetitions
             << ";clustering_seed=" << clustering_seed
             << ";bootstrap_rounds=" << bootstrap_rounds
             << ";tie_epsilon=" << str::format("%.12g", tie_epsilon)
             << ";decision_threshold="
             << str::format("%.12g", decision_threshold);
        // Coordination changes which clustering the stop decisions watch and
        // confidence changes the stopping rule — both are measurement-
        // determining. Emitted only when set so pre-coordination adaptive
        // specs keep their plan hashes.
        if (adaptive_coordinated) plan << ";adaptive_coordination=coordinated";
        if (adaptive_confidence != 0.0) {
            plan << ";adaptive_confidence="
                 << str::format("%.12g", adaptive_confidence);
        }
    }

    return support::fnv1a(plan.str());
}

std::uint64_t CampaignSpec::prefix_hash() const {
    // Zero is not a valid budget (validate() demands measurements > 0), so
    // hashing the plan with a zero sentinel cannot collide with any real
    // plan hash — and reusing hash() keeps the canonical plan text in one
    // place.
    CampaignSpec budget_blind = *this;
    budget_blind.measurements = 0;
    return budget_blind.hash();
}

workloads::TaskChain CampaignSpec::chain() const {
    return workloads::make_rls_chain(sizes, iters, name + "-chain", backend);
}

std::vector<workloads::VariantAssignment> CampaignSpec::variants() const {
    if (!variant_backends.empty()) {
        return workloads::enumerate_variants(sizes.size(), variant_backends);
    }
    return workloads::enumerate_assignments(sizes.size());
}

core::AdaptiveConfig CampaignSpec::adaptive_config() const {
    RELPERF_REQUIRE(adaptive(),
                    "campaign: adaptive_config() on a fixed-N spec");
    core::AdaptiveConfig config;
    config.min_n = adaptive_min;
    config.max_n = measurements;
    config.batch = adaptive_batch;
    config.stability_rounds = adaptive_stability;
    config.confidence = adaptive_confidence;
    return config;
}

core::AnalysisConfig CampaignSpec::analysis_config(std::size_t workers) const {
    core::AnalysisConfig config;
    config.measurements_per_alg = measurements;
    config.measurement_seed = measurement_seed;
    config.comparator.rounds = bootstrap_rounds;
    config.comparator.tie_epsilon = tie_epsilon;
    config.comparator.decision_threshold = decision_threshold;
    config.clustering.repetitions = clustering_repetitions;
    config.clustering.seed = clustering_seed;
    config.clustering.workers = workers;
    if (adaptive()) config.adaptive = adaptive_config();
    return config;
}

} // namespace relperf::campaign
