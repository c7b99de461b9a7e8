#include "linalg/backend.hpp"

#include "linalg/cholesky.hpp"
#include "linalg/gemm.hpp"
#include "linalg/syrk.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

#include <atomic>
#include <deque>
#include <mutex>

namespace relperf::linalg {

#ifdef RELPERF_HAVE_BLAS
namespace detail {
Backend make_blas_backend(); // defined in backend_blas.cpp
} // namespace detail
#endif

namespace {

/// Registry storage. A deque keeps references stable across registrations,
/// so `backend()` results remain valid for the process lifetime.
struct Registry {
    std::mutex mutex;
    std::deque<Backend> backends;

    Registry() {
        backends.push_back(Backend{
            kReferenceBackend,
            "textbook loops — the parity oracle, always available",
            &gemm_reference, &gram_reference, &cholesky_factor_reference});
        backends.push_back(Backend{
            kPortableBackend,
            "blocked/packed kernels (OpenMP when built in) — the default",
            &gemm_blocked, &gram_blocked, &cholesky_factor_unblocked});
#ifdef RELPERF_HAVE_BLAS
        backends.push_back(detail::make_blas_backend());
#endif
    }

    const Backend* find(const std::string& name) {
        for (const Backend& b : backends) {
            if (b.name == name) return &b;
        }
        return nullptr;
    }
};

Registry& registry() {
    static Registry instance;
    return instance;
}

std::atomic<const Backend*> g_default{nullptr};
thread_local const Backend* t_override = nullptr;

} // namespace

void register_backend(Backend backend) {
    RELPERF_REQUIRE(!backend.name.empty(),
                    "register_backend: backend name must not be empty");
    RELPERF_REQUIRE(backend.gemm != nullptr && backend.syrk != nullptr &&
                        backend.cholesky != nullptr,
                    "register_backend: every kernel pointer must be non-null");
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    RELPERF_REQUIRE(reg.find(backend.name) == nullptr,
                    "register_backend: backend '" + backend.name +
                        "' is already registered");
    reg.backends.push_back(std::move(backend));
}

const Backend& backend(const std::string& name) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    if (const Backend* found = reg.find(name)) return *found;
    std::vector<std::string> names;
    names.reserve(reg.backends.size());
    for (const Backend& b : reg.backends) names.push_back(b.name);
    throw InvalidArgument("unknown linalg backend '" + name +
                          "' (registered: " + str::join(names, ", ") +
                          ") — a 'blas' backend additionally requires "
                          "building with -DRELPERF_ENABLE_BLAS=ON");
}

bool has_backend(const std::string& name) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.find(name) != nullptr;
}

std::vector<std::string> backend_names() {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    std::vector<std::string> names;
    names.reserve(reg.backends.size());
    for (const Backend& b : reg.backends) names.push_back(b.name);
    return names;
}

const Backend& default_backend() {
    const Backend* current = g_default.load(std::memory_order_acquire);
    if (current == nullptr) {
        // First use: the portable kernels, exactly the pre-backend behavior.
        current = &backend(kPortableBackend);
        const Backend* expected = nullptr;
        g_default.compare_exchange_strong(expected, current,
                                          std::memory_order_acq_rel);
        current = g_default.load(std::memory_order_acquire);
    }
    return *current;
}

void set_default_backend(const std::string& name) {
    g_default.store(&backend(name), std::memory_order_release);
}

const Backend& active_backend() {
    return t_override != nullptr ? *t_override : default_backend();
}

ScopedBackend::ScopedBackend(const Backend& backend) : saved_(t_override) {
    t_override = &backend;
}

ScopedBackend::~ScopedBackend() { t_override = saved_; }

} // namespace relperf::linalg
