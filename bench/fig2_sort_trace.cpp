//! Reproduces the paper's **Figure 2**: the step-by-step trace of the
//! three-way bubble sort on the four algorithms of Figure 1a, starting from
//! the paper's initial sequence <DD, AA, DA, AD>.
//!
//! Two traces are printed:
//!  1. the *idealized* trace with a deterministic comparator encoding the
//!     true relations (matches the paper figure exactly), and
//!  2. a *measured* trace driven by the bootstrap comparator on simulated
//!     N = 30 distributions (may differ on borderline pairs — that is the
//!     point of Sec. III).

#include "bench_common.hpp"
#include "core/report.hpp"
#include "sim/profile.hpp"
#include "workloads/chain.hpp"

#include <cstdio>
#include <exception>
#include <map>

using namespace relperf;
using core::Ordering;

namespace {

/// The true relations of Figure 1b as a deterministic comparator.
class Figure1bTruth final : public core::Comparator {
public:
    explicit Figure1bTruth(const core::MeasurementSet& set) {
        const std::size_t dd = set.index_of("algDD");
        const std::size_t aa = set.index_of("algAA");
        const std::size_t da = set.index_of("algDA");
        const std::size_t ad = set.index_of("algAD");
        set_pair(ad, aa, Ordering::Better);
        set_pair(ad, dd, Ordering::Better);
        set_pair(ad, da, Ordering::Better);
        set_pair(aa, dd, Ordering::Better);
        set_pair(aa, da, Ordering::Better);
        set_pair(dd, da, Ordering::Equivalent);
        samples_ = &set;
    }

    Ordering compare(std::span<const double> a, std::span<const double> b,
                     stats::Rng&) const override {
        return table_.at({index_of(a), index_of(b)});
    }

    std::string name() const override { return "figure-1b-truth"; }

private:
    std::size_t index_of(std::span<const double> s) const {
        for (std::size_t i = 0; i < samples_->size(); ++i) {
            const auto ref = samples_->samples(i);
            if (ref.data() == s.data()) return i;
        }
        return 0;
    }

    void set_pair(std::size_t a, std::size_t b, Ordering o) {
        table_[{a, b}] = o;
        table_[{b, a}] = core::reverse(o);
    }

    std::map<std::pair<std::size_t, std::size_t>, Ordering> table_;
    const core::MeasurementSet* samples_ = nullptr;
};

} // namespace

int main(int argc, char** argv) try {
    support::CliParser cli("fig2_sort_trace — paper Figure 2 bubble-sort trace");
    bench::add_common_options(cli);
    cli.add_option("n", "measurements per algorithm (measured trace)", "30");
    if (!cli.parse(argc, argv)) return 0;
    const std::uint64_t seed = bench::seed(cli);
    const std::size_t rep = bench::repetitions(cli);
    const std::size_t n = str::parse_positive_size(cli.value("n"), "--n");

    const workloads::TaskChain chain = workloads::two_loop_chain();
    const sim::CalibratedProfile profile = sim::fig1b_profile();
    const sim::SimulatedExecutor executor(profile, sim::NoiseModel{});

    stats::Rng rng(seed);
    core::MeasurementSet set = core::measure_variants(
        executor, chain, workloads::enumerate_assignments(2), n, rng);

    // Paper's initial sequence <DD, AA, DA, AD>.
    const std::vector<std::size_t> initial = {
        set.index_of("algDD"), set.index_of("algAA"), set.index_of("algDA"),
        set.index_of("algAD")};

    bench::section("Idealized trace (deterministic comparator; paper Figure 2)");
    {
        const Figure1bTruth truth(set);
        const core::RelativeClusterer clusterer(truth, core::ClustererConfig{1, 1});
        std::vector<core::SortStep> trace;
        stats::Rng sort_rng(1);
        const core::RankedSequence final_seq =
            clusterer.sort_once_traced(set, initial, sort_rng, trace);
        std::fputs(core::render_sort_trace(trace, set).c_str(), stdout);
        std::printf("final: ");
        for (std::size_t pos = 0; pos < final_seq.order.size(); ++pos) {
            std::printf("(%s, %d) ", set.name(final_seq.order[pos]).c_str(),
                        final_seq.ranks[pos]);
        }
        std::printf("\npaper:  (algAD, 1) (algAA, 2) (algDD, 3) (algDA, 3)\n");
    }

    bench::section("Measured trace (bootstrap comparator on N = " +
                   cli.value("n") + " simulated measurements)");
    {
        const core::BootstrapComparator comparator;
        const core::RelativeClusterer clusterer(comparator,
                                                core::ClustererConfig{1, 1});
        std::vector<core::SortStep> trace;
        stats::Rng sort_rng(seed + 1);
        (void)clusterer.sort_once_traced(set, initial, sort_rng, trace);
        std::fputs(core::render_sort_trace(trace, set).c_str(), stdout);
    }

    bench::section("Relative scores over Rep = " + cli.value("rep") +
                   " shuffled repetitions");
    {
        const core::BootstrapComparator comparator;
        const core::RelativeClusterer clusterer(comparator,
                                                core::ClustererConfig{rep, seed});
        const core::Clustering clustering = clusterer.cluster(set);
        std::fputs(core::render_cluster_table(clustering, set).c_str(), stdout);
    }
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
