#pragma once
//! \file features.hpp
//! Feature extraction for relative-performance prediction — the paper's
//! future-work direction (Sec. V): "performance models that predict relative
//! scores without having to execute all the algorithms".
//!
//! The features describe a (chain, variant) pair with physical quantities a
//! cost model would consume: per-task, per-backend placement-weighted work,
//! staging transitions and residency pairs. They are chosen so that the
//! conditional cost models of src/sim lie exactly in the span of a linear
//! predictor — property-tested in tests/model/predictor_test.cpp and
//! tests/model/variant_features_test.cpp. There is one feature space: a
//! plain placement is the variant whose tasks all inherit the chain backend,
//! and over the one-backend universe {chain backend} its row is the 5k + 5
//! placement layout (per task dev_iters, acc_iters, enter_acc, enter_dev,
//! resident; then ends_on_acc, device_flops, accel_flops, accel_launches,
//! link_bytes).

#include "workloads/chain.hpp"

#include <string>
#include <vector>

namespace relperf::model {

/// Dense feature vector with stable ordering (see variant_feature_names).
struct FeatureVector {
    std::vector<double> values;
};

/// The label used in variant feature names for the empty "inherit the
/// ambient backend" bucket.
[[nodiscard]] std::string backend_feature_label(const std::string& backend);

/// The distinct resolved backends of `variants` on `chain` (each task's
/// policy backend, else the chain default), in first-seen order — the
/// feature universe a fit derives when it is given none. Deterministic for a
/// deterministic variant list.
[[nodiscard]] std::vector<std::string> resolved_backends(
    const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants);

/// Names of the variant features for a k-task chain over the backend
/// universe `backends` (the distinct resolved backends of the variant set;
/// may contain "" for the inherit bucket). The per-task iteration features
/// split by backend — `dev_iters@b[i]` / `acc_iters@b[i]` — and the
/// chain-level FLOP features become backend-weighted (`device_flops@b`,
/// `accel_flops@b`), so per-(task, backend) throughput multipliers of the
/// simulator's cost models still lie exactly in the span of a linear
/// predictor. Transition/residency features are backend-independent (staging
/// is data movement) and keep their placement-only form.
[[nodiscard]] std::vector<std::string> variant_feature_names(
    const workloads::TaskChain& chain, const std::vector<std::string>& backends);

/// Extracts the variant features of one (chain, variant) pair. Every task's
/// resolved backend (policy backend, else the chain default) must appear in
/// `backends`; throws InvalidArgument otherwise.
[[nodiscard]] FeatureVector extract_variant_features(
    const workloads::TaskChain& chain,
    const workloads::VariantAssignment& variant,
    const std::vector<std::string>& backends);

} // namespace relperf::model
