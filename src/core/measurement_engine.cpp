#include "core/measurement_engine.hpp"

#include "core/stopping_rule.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "workloads/mathtask.hpp"

#include <algorithm>
#include <numeric>

namespace relperf::core {

void AdaptiveConfig::validate() const {
    RELPERF_REQUIRE(min_n > 0, "AdaptiveConfig: min_n must be positive");
    RELPERF_REQUIRE(max_n >= min_n,
                    "AdaptiveConfig: max_n must be >= min_n");
    RELPERF_REQUIRE(batch > 0, "AdaptiveConfig: batch must be positive");
    // The stopping rule owns the valid ranges of its two knobs.
    (void)StoppingRule(stability_rounds, confidence);
}

VariantSampleSource::VariantSampleSource(
    workloads::TaskChain chain,
    std::vector<workloads::VariantAssignment> variants, std::uint64_t seed,
    const std::vector<std::size_t>& globals)
    : chain_(std::move(chain)), variants_(std::move(variants)) {
    RELPERF_REQUIRE(globals.empty() || globals.size() == variants_.size(),
                    "VariantSampleSource: one global index per variant");
    const stats::Rng master(seed);
    streams_.reserve(variants_.size());
    for (std::size_t i = 0; i < variants_.size(); ++i) {
        streams_.push_back(master.child(globals.empty() ? i : globals[i]));
    }
}

std::string VariantSampleSource::name(std::size_t index) const {
    RELPERF_REQUIRE(index < variants_.size(),
                    "VariantSampleSource: index out of range");
    return variants_[index].alg_name();
}

stats::Rng& VariantSampleSource::stream(std::size_t index) {
    RELPERF_REQUIRE(index < streams_.size(),
                    "VariantSampleSource: index out of range");
    return streams_[index];
}

SimSampleSource::SimSampleSource(
    const sim::SimulatedExecutor& executor, workloads::TaskChain chain,
    std::vector<workloads::VariantAssignment> variants, std::uint64_t seed,
    const std::vector<std::size_t>& globals)
    : VariantSampleSource(std::move(chain), std::move(variants), seed,
                          globals),
      executor_(executor) {}

std::vector<double> SimSampleSource::draw(std::size_t index, std::size_t n) {
    // The executor-backed sources are where samples become real, so they own
    // the relperf_samples_total accounting: a cache hit that serves stored
    // values never reaches a leaf draw and therefore counts nothing.
    obs::metrics().samples_total.inc(n);
    return executor_.measure(chain_, variants_[index], n, stream(index));
}

void SimSampleSource::skip(std::size_t index, std::size_t n) {
    // run_once consumes exactly the stream prefix one measured sample does
    // and increments no counters, so n discarded runs fast-forward the
    // stream bit-identically to n kept measurements.
    stats::Rng& rng = stream(index);
    for (std::size_t i = 0; i < n; ++i) {
        (void)executor_.run_once(chain_, variants_[index], rng);
    }
}

RealSampleSource::RealSampleSource(
    const sim::RealExecutor& executor, workloads::TaskChain chain,
    std::vector<workloads::VariantAssignment> variants, std::uint64_t seed,
    const std::vector<std::size_t>& globals, std::size_t warmup)
    : VariantSampleSource(std::move(chain), std::move(variants), seed,
                          globals),
      executor_(executor),
      warmup_(warmup) {}

std::vector<double> RealSampleSource::draw(std::size_t index, std::size_t n) {
    // Warmup before every draw: between adaptive rounds the other active
    // algorithms ran and evicted this one's caches/codepaths, so extension
    // samples need the same heating as first samples. RealExecutor::measure
    // runs warmups on a hoisted stream, so the measured sequence is
    // warmup-count-invariant either way.
    obs::metrics().samples_total.inc(n);
    return executor_.measure(chain_, variants_[index], n, stream(index),
                             warmup_);
}

void RealSampleSource::skip(std::size_t index, std::size_t n) {
    // The real chains consume a fixed number of uniform draws per run (two
    // random matrices per task iteration, one generator step per element —
    // see workloads::stream_draws_per_run), so the fast-forward discards
    // exactly that many raw draws instead of re-running the workload. Warmup
    // runs live on a hoisted child stream and never touch this one.
    const std::size_t per_run = workloads::stream_draws_per_run(chain_);
    stats::Rng& rng = stream(index);
    for (std::size_t i = 0; i < n * per_run; ++i) (void)rng.bits();
}

MeasurementSet measure_all(SampleSource& source, std::size_t n) {
    RELPERF_REQUIRE(source.count() > 0, "measure_all: empty sample source");
    RELPERF_REQUIRE(n > 0, "measure_all: need at least one measurement");
    obs::Span span("measure_all", "core");
    span.arg("algorithms", static_cast<std::uint64_t>(source.count()))
        .arg("n", static_cast<std::uint64_t>(n));
    // relperf_samples_total is counted by the sources' leaf draw() calls,
    // not here: a caching source that serves stored values must not count.
    MeasurementSet set;
    for (std::size_t i = 0; i < source.count(); ++i) {
        set.add(source.name(i), source.draw(i, n));
    }
    return set;
}

std::string render_savings(std::size_t total_samples,
                           std::size_t fixed_n_samples) {
    const std::size_t saved =
        fixed_n_samples > total_samples ? fixed_n_samples - total_samples : 0;
    const double percent =
        fixed_n_samples == 0 ? 0.0
                             : 100.0 * static_cast<double>(saved) /
                                   static_cast<double>(fixed_n_samples);
    return str::format("measured %zu of %zu fixed-N samples, saved %zu "
                       "(%.1f%%)",
                       total_samples, fixed_n_samples, saved, percent);
}

MeasurementEngine::MeasurementEngine(AdaptiveConfig adaptive,
                                     BootstrapComparatorConfig comparator,
                                     ClustererConfig clustering)
    : adaptive_(adaptive), comparator_(comparator), clustering_(clustering) {
    adaptive_.validate();
    comparator_.validate();
    clustering_.validate();
}

EngineResult MeasurementEngine::run(SampleSource& source,
                                    const RoundObserver& on_round) const {
    const std::size_t count = source.count();
    StoppingRule rule(adaptive_.stability_rounds, adaptive_.confidence);
    obs::Span span("engine.run", "engine");
    span.arg("algorithms", static_cast<std::uint64_t>(count))
        .arg("min_n", static_cast<std::uint64_t>(adaptive_.min_n))
        .arg("max_n", static_cast<std::uint64_t>(adaptive_.max_n))
        .arg("batch", static_cast<std::uint64_t>(adaptive_.batch))
        .arg("rule", rule.name());
    // A round is one clustering consulted; the extension rounds beyond the
    // first add at most batch samples each, which bounds the meter.
    const std::size_t max_rounds =
        1 + (adaptive_.max_n - adaptive_.min_n + adaptive_.batch - 1) /
                adaptive_.batch;
    EngineResult out;
    out.fixed_n_samples = count * adaptive_.max_n;
    obs::metrics().samples_fixed_n_total.inc(out.fixed_n_samples);
    out.measurements = measure_all(source, adaptive_.min_n);
    // Reserve the full budget up front: the per-round extends then append
    // into preallocated storage instead of reallocating every few rounds
    // (quadratic copying across a long adaptive run).
    for (std::size_t i = 0; i < count; ++i) {
        out.measurements.reserve_samples(i, adaptive_.max_n);
    }
    out.samples_per_alg.assign(count, adaptive_.min_n);
    out.rounds = 1;

    const BootstrapComparator comparator(comparator_);
    const RelativeClusterer clusterer(comparator, clustering_);
    std::vector<bool> stopped(count, false);
    std::size_t stopped_total = 0;
    while (true) {
        obs::Span round_span("engine.round", "engine");
        obs::metrics().adaptive_rounds.inc();
        obs::report_progress("engine.round", out.rounds, max_rounds);
        // The same clustering analyze_measurements computes on this round's
        // samples, so the last round's is the one published.
        Clustering clustering = clusterer.cluster(out.measurements);
        // Frozen algorithms stay frozen: their rule verdict is never read
        // again, so the rule may skip their bookkeeping.
        rule.observe(clustering, stopped);

        std::vector<std::size_t> extend;
        std::size_t newly_stopped = 0;
        for (std::size_t i = 0; i < count; ++i) {
            if (stopped[i]) continue;
            if (out.samples_per_alg[i] >= adaptive_.max_n ||
                rule.should_stop(i)) {
                stopped[i] = true;
                ++newly_stopped;
                continue;
            }
            extend.push_back(i);
        }
        stopped_total += newly_stopped;
        round_span.arg("round", static_cast<std::uint64_t>(out.rounds))
            .arg("extending", static_cast<std::uint64_t>(extend.size()))
            .arg("stopped", static_cast<std::uint64_t>(count - extend.size()));
        if (on_round) {
            on_round(EngineRound{out.rounds, newly_stopped, stopped_total,
                                 extend.size()});
        }
        if (extend.empty()) {
            out.clustering = std::move(clustering);
            break;
        }
        for (const std::size_t i : extend) {
            const std::size_t n =
                std::min(adaptive_.batch, adaptive_.max_n - out.samples_per_alg[i]);
            const std::vector<double> fresh = source.draw(i, n);
            out.measurements.extend(i, fresh);
            out.samples_per_alg[i] += fresh.size();
        }
        ++out.rounds;
    }

    out.total_samples = std::accumulate(out.samples_per_alg.begin(),
                                        out.samples_per_alg.end(),
                                        std::size_t{0});
    return out;
}

} // namespace relperf::core
