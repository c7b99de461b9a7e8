//! The placement features: a plain assignment is the variant whose tasks all
//! inherit the chain backend, featurized over the one-backend universe
//! {chain backend} — the 5k + 5 layout the predictor fits plain placements
//! in.

#include "model/features.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

#include <map>

namespace model = relperf::model;
namespace workloads = relperf::workloads;
using workloads::VariantAssignment;

namespace {

/// The placement universe: the chain backend alone ("" for the paper chain,
/// whose features are labelled "inherit").
std::vector<std::string> placement_universe(const workloads::TaskChain& chain) {
    return {chain.backend};
}

std::map<std::string, double> named_features(const workloads::TaskChain& chain,
                                             const VariantAssignment& assignment) {
    const auto universe = placement_universe(chain);
    const auto names = model::variant_feature_names(chain, universe);
    const auto features = model::extract_variant_features(
        chain, VariantAssignment(assignment), universe);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < names.size(); ++i) {
        out[names[i]] = features.values[i];
    }
    return out;
}

} // namespace

TEST(Features, DimensionMatchesNames) {
    const auto chain = workloads::paper_rls_chain(10);
    const auto universe = placement_universe(chain);
    const auto names = model::variant_feature_names(chain, universe);
    const auto features = model::extract_variant_features(
        chain, VariantAssignment("DDA"), universe);
    EXPECT_EQ(names.size(), features.values.size());
    EXPECT_EQ(names.size(), 5 * chain.size() + 5);
}

TEST(Features, PlacementItersAreExclusive) {
    const auto chain = workloads::paper_rls_chain(10);
    const auto f = named_features(chain, VariantAssignment("DAD"));
    EXPECT_DOUBLE_EQ(f.at("dev_iters@inherit[L1]"), 10.0);
    EXPECT_DOUBLE_EQ(f.at("acc_iters@inherit[L1]"), 0.0);
    EXPECT_DOUBLE_EQ(f.at("dev_iters@inherit[L2]"), 0.0);
    EXPECT_DOUBLE_EQ(f.at("acc_iters@inherit[L2]"), 10.0);
    EXPECT_DOUBLE_EQ(f.at("dev_iters@inherit[L3]"), 10.0);
}

TEST(Features, TransitionIndicators) {
    const auto chain = workloads::paper_rls_chain(10);
    const auto f = named_features(chain, VariantAssignment("DAD"));
    EXPECT_DOUBLE_EQ(f.at("enter_acc[L2]"), 1.0); // D -> A before L2
    EXPECT_DOUBLE_EQ(f.at("enter_dev[L3]"), 1.0); // A -> D before L3
    EXPECT_DOUBLE_EQ(f.at("enter_acc[L1]"), 0.0); // starts on device
    EXPECT_DOUBLE_EQ(f.at("resident[L2]"), 0.0);
    EXPECT_DOUBLE_EQ(f.at("ends_on_acc"), 0.0);
}

TEST(Features, ResidencyIndicatorForConsecutiveAccelerator) {
    const auto chain = workloads::paper_rls_chain(10);
    const auto f = named_features(chain, VariantAssignment("DAA"));
    EXPECT_DOUBLE_EQ(f.at("resident[L3]"), 1.0); // L2 and L3 both on A
    EXPECT_DOUBLE_EQ(f.at("enter_acc[L3]"), 0.0);
    EXPECT_DOUBLE_EQ(f.at("ends_on_acc"), 1.0);
}

TEST(Features, FlopsPartitionTotal) {
    const auto chain = workloads::paper_rls_chain(10);
    const double total =
        workloads::flop_split(chain, VariantAssignment("DDD")).total();
    for (const auto& a : workloads::enumerate_assignments(3)) {
        const auto f = named_features(chain, a);
        EXPECT_NEAR(f.at("device_flops@inherit") + f.at("accel_flops@inherit"),
                    total, 1.0)
            << a.str();
    }
}

TEST(Features, AccelLaunchesCountOnlyOffloadedTasks) {
    const auto chain = workloads::paper_rls_chain(10);
    EXPECT_DOUBLE_EQ(named_features(chain, VariantAssignment("DDD")).at("accel_launches"),
                     0.0);
    // One RLS task on A: 10 iters x 10 ops.
    EXPECT_DOUBLE_EQ(named_features(chain, VariantAssignment("DDA")).at("accel_launches"),
                     100.0);
    EXPECT_DOUBLE_EQ(named_features(chain, VariantAssignment("AAA")).at("accel_launches"),
                     300.0);
}

TEST(Features, LengthMismatchThrows) {
    const auto chain = workloads::paper_rls_chain(10);
    EXPECT_THROW((void)model::extract_variant_features(
                     chain, VariantAssignment("DD"), placement_universe(chain)),
                 relperf::InvalidArgument);
}
