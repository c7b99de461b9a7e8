#include "model/features.hpp"

#include "support/error.hpp"

#include <algorithm>

namespace relperf::model {

using workloads::Placement;

std::string backend_feature_label(const std::string& backend) {
    return backend.empty() ? "inherit" : backend;
}

std::vector<std::string> resolved_backends(
    const workloads::TaskChain& chain,
    const std::vector<workloads::VariantAssignment>& variants) {
    std::vector<std::string> universe;
    for (const workloads::VariantAssignment& variant : variants) {
        for (std::size_t i = 0; i < variant.size(); ++i) {
            const std::string& resolved =
                variant.resolved_backend(i, chain.backend);
            if (std::find(universe.begin(), universe.end(), resolved) ==
                universe.end()) {
                universe.push_back(resolved);
            }
        }
    }
    return universe;
}

namespace {

/// Index of a task's resolved backend in the feature universe; throws when
/// the universe does not cover it (the predictor cannot represent a backend
/// it was never told about).
std::size_t backend_bucket(const std::string& resolved,
                           const std::vector<std::string>& backends) {
    for (std::size_t b = 0; b < backends.size(); ++b) {
        if (backends[b] == resolved) return b;
    }
    throw InvalidArgument("variant features: resolved backend '" +
                          backend_feature_label(resolved) +
                          "' is not in the feature backend universe");
}

} // namespace

std::vector<std::string> variant_feature_names(
    const workloads::TaskChain& chain, const std::vector<std::string>& backends) {
    RELPERF_REQUIRE(!backends.empty(),
                    "variant_feature_names: empty backend universe");
    std::vector<std::string> names;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        const std::string suffix = "[" + chain.tasks[i].name + "]";
        for (const std::string& backend : backends) {
            const std::string label = backend_feature_label(backend);
            names.push_back("dev_iters@" + label + suffix);
            names.push_back("acc_iters@" + label + suffix);
        }
        names.push_back("enter_acc" + suffix);
        names.push_back("enter_dev" + suffix);
        names.push_back("resident" + suffix);
    }
    names.emplace_back("ends_on_acc");
    for (const std::string& backend : backends) {
        const std::string label = backend_feature_label(backend);
        names.push_back("device_flops@" + label);
        names.push_back("accel_flops@" + label);
    }
    names.emplace_back("accel_launches");
    names.emplace_back("link_bytes");
    return names;
}

FeatureVector extract_variant_features(
    const workloads::TaskChain& chain,
    const workloads::VariantAssignment& variant,
    const std::vector<std::string>& backends) {
    RELPERF_REQUIRE(chain.size() == variant.size(),
                    "extract_variant_features: assignment length must match "
                    "chain length");
    RELPERF_REQUIRE(!backends.empty(),
                    "extract_variant_features: empty backend universe");
    const std::size_t B = backends.size();
    FeatureVector features;
    features.values.reserve((2 * B + 3) * chain.size() + 2 * B + 3);

    std::vector<double> device_flops(B, 0.0);
    std::vector<double> accel_flops(B, 0.0);
    double accel_launches = 0.0;
    Placement prev = Placement::Device;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        const Placement p = variant.at(i).placement;
        const std::size_t bucket =
            backend_bucket(variant.resolved_backend(i, chain.backend), backends);
        const double iters = static_cast<double>(chain.tasks[i].iters);
        const bool on_accel = p == Placement::Accelerator;
        for (std::size_t b = 0; b < B; ++b) {
            features.values.push_back(!on_accel && b == bucket ? iters : 0.0);
            features.values.push_back(on_accel && b == bucket ? iters : 0.0);
        }
        features.values.push_back(on_accel && prev == Placement::Device ? 1.0 : 0.0);
        features.values.push_back(!on_accel && prev == Placement::Accelerator ? 1.0
                                                                              : 0.0);
        features.values.push_back(on_accel && prev == Placement::Accelerator ? 1.0
                                                                             : 0.0);
        const double flops = workloads::task_cost(chain.tasks[i]).flops;
        (on_accel ? accel_flops : device_flops)[bucket] += flops;
        if (on_accel) {
            accel_launches += workloads::task_cost(chain.tasks[i]).op_launches;
        }
        prev = p;
    }
    features.values.push_back(prev == Placement::Accelerator ? 1.0 : 0.0);
    for (std::size_t b = 0; b < B; ++b) {
        features.values.push_back(device_flops[b]);
        features.values.push_back(accel_flops[b]);
    }
    features.values.push_back(accel_launches);
    features.values.push_back(workloads::bytes_over_link(chain, variant));
    return features;
}

} // namespace relperf::model
