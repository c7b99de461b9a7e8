#include "core/pipeline.hpp"

#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace relperf::core {

std::uint64_t assignment_stream_seed(std::uint64_t master_seed,
                                     std::size_t index) noexcept {
    return stats::Rng(master_seed).child(index).seed();
}

MeasurementSet measure_variants(
    const sim::SimulatedExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants, std::size_t n,
    stats::Rng& rng) {
    RELPERF_REQUIRE(!variants.empty(), "measure_variants: no variants");
    SimSampleSource source(executor, chain, variants, rng.seed());
    obs::metrics().samples_fixed_n_total.inc(variants.size() * n);
    return measure_all(source, n);
}

MeasurementSet measure_variants_real(
    const sim::RealExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants, std::size_t n,
    stats::Rng& rng, std::size_t warmup) {
    RELPERF_REQUIRE(!variants.empty(), "measure_variants_real: no variants");
    RealSampleSource source(executor, chain, variants, rng.seed(), {},
                            warmup);
    obs::metrics().samples_fixed_n_total.inc(variants.size() * n);
    return measure_all(source, n);
}

AnalysisResult analyze_source(SampleSource& source,
                              const AnalysisConfig& config,
                              const RoundObserver& on_round) {
    AdaptiveConfig one_round;
    one_round.min_n = one_round.max_n = config.measurements_per_alg;
    const MeasurementEngine engine(config.adaptive.value_or(one_round),
                                   config.comparator, config.clustering);
    EngineResult measured = engine.run(source, on_round);
    AnalysisResult out;
    out.measurements = std::move(measured.measurements);
    out.clustering = std::move(measured.clustering);
    out.samples_per_alg = std::move(measured.samples_per_alg);
    out.total_samples = measured.total_samples;
    out.fixed_n_samples = measured.fixed_n_samples;
    return out;
}

AnalysisResult analyze_chain(
    const sim::SimulatedExecutor& executor, const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants,
    const AnalysisConfig& config) {
    RELPERF_REQUIRE(!variants.empty(), "analyze_chain: no assignments");
    SimSampleSource source(executor, chain, variants, config.measurement_seed);
    return analyze_source(source, config);
}

AnalysisResult analyze_measurements(MeasurementSet measurements,
                                    const AnalysisConfig& config) {
    const BootstrapComparator comparator(config.comparator);
    const RelativeClusterer clusterer(comparator, config.clustering);
    Clustering clustering = clusterer.cluster(measurements);
    return analysis_result(std::move(measurements), std::move(clustering));
}

AnalysisResult analysis_result(MeasurementSet measurements,
                               Clustering clustering) {
    AnalysisResult out;
    out.samples_per_alg.reserve(measurements.size());
    for (std::size_t i = 0; i < measurements.size(); ++i) {
        out.samples_per_alg.push_back(measurements.samples(i).size());
    }
    out.total_samples = measurements.total_samples();
    out.fixed_n_samples = out.total_samples;
    out.measurements = std::move(measurements);
    out.clustering = std::move(clustering);
    return out;
}

} // namespace relperf::core
