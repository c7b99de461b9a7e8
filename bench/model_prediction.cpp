//! Extension bench (paper Sec. V outlook): execution-less prediction of
//! relative performance. Trains the ridge predictor on the measured Table I
//! workload and reports (a) true-vs-predicted mean times for every split,
//! (b) ordering quality (Kendall tau, Spearman rho, pairwise disagreement,
//! class agreement), and (c) how quality degrades when training on smaller
//! measured subsets (the Sec. V "apply the methodology on a subset" regime).

#include "bench_common.hpp"
#include "model/predictor.hpp"
#include "model/triplet.hpp"
#include "stats/ranking.hpp"
#include "sim/profile.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workloads/chain.hpp"

#include <cstdio>
#include <exception>

using namespace relperf;

int main(int argc, char** argv) try {
    support::CliParser cli("model_prediction — execution-less relative performance");
    bench::add_common_options(cli);
    cli.add_option("n", "measurements per algorithm", "30");
    if (!cli.parse(argc, argv)) return 0;
    const std::size_t n = str::parse_positive_size(cli.value("n"), "--n");
    const core::AnalysisConfig config = bench::analysis_config(cli, n);

    const workloads::TaskChain chain = workloads::paper_rls_chain(10);
    const sim::CalibratedProfile profile = sim::paper_rls_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});
    const auto variants = workloads::enumerate_assignments(chain.size());

    const core::AnalysisResult analysis =
        core::analyze_chain(executor, chain, variants, config);

    model::PerformancePredictor predictor;
    predictor.fit(chain, variants, analysis.measurements);

    bench::section("True vs predicted mean execution times (trained on all 8)");
    support::AsciiTable table({"Algorithm", "Measured", "Predicted", "Error"},
                              {support::Align::Left, support::Align::Right,
                               support::Align::Right, support::Align::Right});
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const double measured = analysis.measurements.summary(i).mean;
        const double predicted = predictor.predict_seconds(chain, variants[i]);
        table.add_row({analysis.measurements.name(i),
                       str::human_seconds(measured),
                       str::human_seconds(predicted),
                       str::format("%+.2f %%", 100.0 * (predicted / measured - 1.0))});
    }
    std::fputs(table.render().c_str(), stdout);

    const model::PredictionEval eval = model::evaluate_predictor(
        predictor, chain, variants, analysis.measurements, analysis.clustering);
    bench::section("Ordering quality");
    std::printf("Kendall tau-b          : %.3f\n", eval.kendall_tau);
    std::printf("Spearman rho           : %.3f\n", eval.spearman_rho);
    std::printf("pairwise disagreement  : %.3f\n", eval.pairwise_disagreement);
    std::printf("mean |rel. error|      : %.3f\n", eval.mean_abs_rel_error);
    std::printf("class agreement        : %.3f\n", eval.rank_agreement);

    bench::section("Prediction quality vs training-subset size");
    support::AsciiTable sweep({"Train on", "Kendall tau", "Mean |rel err|"},
                              {support::Align::Right, support::Align::Right,
                               support::Align::Right});
    stats::Rng subset_rng(config.measurement_seed + 99);
    for (const std::size_t train_count : {3u, 4u, 5u, 6u, 8u}) {
        // Average over random subsets.
        double tau_sum = 0.0;
        double err_sum = 0.0;
        constexpr int kTrials = 10;
        for (int trial = 0; trial < kTrials; ++trial) {
            std::vector<std::size_t> order(variants.size());
            for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
            subset_rng.shuffle(order);

            std::vector<workloads::VariantAssignment> train;
            core::MeasurementSet train_set;
            for (std::size_t i = 0; i < train_count; ++i) {
                const std::size_t idx = order[i];
                train.push_back(variants[idx]);
                const auto samples = analysis.measurements.samples(idx);
                train_set.add(analysis.measurements.name(idx),
                              {samples.begin(), samples.end()});
            }
            model::PerformancePredictor sub;
            sub.fit(chain, train, train_set);
            const model::PredictionEval sub_eval = model::evaluate_predictor(
                sub, chain, variants, analysis.measurements,
                analysis.clustering);
            tau_sum += sub_eval.kendall_tau;
            err_sum += sub_eval.mean_abs_rel_error;
        }
        sweep.add_row({std::to_string(train_count) + "/8",
                       str::fixed(tau_sum / kTrials, 3),
                       str::fixed(err_sum / kTrials, 3)});
    }
    std::fputs(sweep.render().c_str(), stdout);

    bench::section("Triplet scorer: trained on class labels only (paper Sec. I)");
    {
        stats::Rng triplet_rng(config.measurement_seed + 1234);
        const model::TripletScorer scorer = model::fit_triplet_scorer(
            chain, variants, analysis.clustering, 600, triplet_rng);
        const auto universe = model::resolved_backends(chain, variants);
        std::vector<double> scores;
        std::vector<double> measured;
        support::AsciiTable ttable({"Algorithm", "Class", "Triplet score"},
                                   {support::Align::Left, support::Align::Left,
                                    support::Align::Right});
        for (std::size_t i = 0; i < variants.size(); ++i) {
            const double s_i = scorer.score(
                model::extract_variant_features(chain, variants[i], universe)
                    .values);
            scores.push_back(s_i);
            measured.push_back(analysis.measurements.summary(i).mean);
            ttable.add_row(
                {analysis.measurements.name(i),
                 "C" + std::to_string(analysis.clustering.final_rank(i)),
                 str::fixed(s_i, 3)});
        }
        std::fputs(ttable.render().c_str(), stdout);
        std::printf("Kendall tau vs measured times: %.3f "
                    "(supervision: class labels only, no absolute times)\n",
                    stats::kendall_tau_b(scores, measured));
    }

    std::printf(
        "\nReading: trained on all eight splits, the structural features\n"
        "reproduce the measured ordering nearly perfectly; with only half of\n"
        "the space measured, the predicted ordering remains strong — the\n"
        "basis for the paper's proposed execution-less algorithm selection.\n");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
