//! Registry and context semantics of the backend layer (backend.hpp):
//! built-in registration, lookup errors, scoped/thread-local selection and
//! the dispatch of gemm/gram/cholesky_factor through the active backend.

#include "linalg/backend.hpp"

#include "linalg/cholesky.hpp"
#include "linalg/gemm.hpp"
#include "linalg/syrk.hpp"
#include "stats/rng.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using relperf::linalg::Matrix;
namespace linalg = relperf::linalg;

namespace {

// Counting wrappers around the reference kernels, used to prove that a
// freshly registered backend really receives the dispatched calls.
std::atomic<int> g_counted_calls{0};

void counted_gemm(double alpha, const Matrix& a, const Matrix& b, double beta,
                  Matrix& c) {
    g_counted_calls.fetch_add(1);
    linalg::gemm_reference(alpha, a, b, beta, c);
}
void counted_syrk(const Matrix& a, Matrix& c) {
    g_counted_calls.fetch_add(1);
    linalg::gram_reference(a, c);
}
void counted_cholesky(Matrix& a) {
    g_counted_calls.fetch_add(1);
    linalg::cholesky_factor_reference(a);
}

} // namespace

TEST(BackendRegistry, BuiltinsAreRegisteredInOrder) {
    const std::vector<std::string> names = linalg::backend_names();
    ASSERT_GE(names.size(), 2u);
    EXPECT_EQ(names[0], linalg::kReferenceBackend);
    EXPECT_EQ(names[1], linalg::kPortableBackend);
    EXPECT_TRUE(linalg::has_backend("portable"));
    EXPECT_TRUE(linalg::has_backend("reference"));
}

TEST(BackendRegistry, DefaultIsPortable) {
    EXPECT_EQ(linalg::default_backend().name, linalg::kPortableBackend);
    EXPECT_EQ(linalg::active_backend().name, linalg::kPortableBackend);
}

TEST(BackendRegistry, EveryRegisteredBackendIsComplete) {
    for (const std::string& name : linalg::backend_names()) {
        const linalg::Backend& b = linalg::backend(name);
        EXPECT_EQ(b.name, name);
        EXPECT_FALSE(b.description.empty()) << name;
        EXPECT_NE(b.gemm, nullptr) << name;
        EXPECT_NE(b.syrk, nullptr) << name;
        EXPECT_NE(b.cholesky, nullptr) << name;
    }
}

TEST(BackendRegistry, UnknownLookupThrowsListingNames) {
    try {
        (void)linalg::backend("warp-core");
        FAIL() << "expected InvalidArgument";
    } catch (const relperf::InvalidArgument& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("warp-core"), std::string::npos) << message;
        EXPECT_NE(message.find("portable"), std::string::npos) << message;
        EXPECT_NE(message.find("reference"), std::string::npos) << message;
    }
    EXPECT_FALSE(linalg::has_backend("warp-core"));
}

TEST(BackendRegistry, RegistrationValidatesTheBackend) {
    linalg::Backend incomplete{"", "", &counted_gemm, &counted_syrk,
                               &counted_cholesky};
    EXPECT_THROW(linalg::register_backend(incomplete),
                 relperf::InvalidArgument);
    incomplete.name = "null-kernel";
    incomplete.cholesky = nullptr;
    EXPECT_THROW(linalg::register_backend(incomplete),
                 relperf::InvalidArgument);
    linalg::Backend duplicate{linalg::kPortableBackend, "dup", &counted_gemm,
                              &counted_syrk, &counted_cholesky};
    EXPECT_THROW(linalg::register_backend(duplicate),
                 relperf::InvalidArgument);
}

TEST(BackendRegistry, RegisteredBackendReceivesDispatchedCalls) {
    // Registration is process-wide and permanent; use a unique name.
    linalg::register_backend(linalg::Backend{"counting-test",
                                             "reference + call counter",
                                             &counted_gemm, &counted_syrk,
                                             &counted_cholesky});
    ASSERT_TRUE(linalg::has_backend("counting-test"));

    relperf::stats::Rng rng(1);
    const Matrix a = Matrix::random_normal(6, 6, rng);
    const Matrix b = Matrix::random_normal(6, 6, rng);
    Matrix c(6, 6);

    g_counted_calls.store(0);
    {
        const linalg::ScopedBackend scope(linalg::backend("counting-test"));
        EXPECT_EQ(linalg::active_backend().name, "counting-test");
        linalg::gemm(1.0, a, b, 0.0, c);
        Matrix g;
        linalg::gram(a, g);
        g.add_scaled_identity(6.0);
        linalg::cholesky_factor(g);
    }
    EXPECT_EQ(g_counted_calls.load(), 3);

    // Outside the scope the default backend is back and the counter stays.
    linalg::gemm(1.0, a, b, 0.0, c);
    EXPECT_EQ(g_counted_calls.load(), 3);
}

TEST(BackendContext, ScopedOverridesNestAndRestore) {
    EXPECT_EQ(linalg::active_backend().name, linalg::kPortableBackend);
    {
        const linalg::ScopedBackend outer(linalg::backend(linalg::kReferenceBackend));
        EXPECT_EQ(linalg::active_backend().name, linalg::kReferenceBackend);
        {
            const linalg::ScopedBackend inner(linalg::backend(linalg::kPortableBackend));
            EXPECT_EQ(linalg::active_backend().name, linalg::kPortableBackend);
        }
        EXPECT_EQ(linalg::active_backend().name, linalg::kReferenceBackend);
    }
    EXPECT_EQ(linalg::active_backend().name, linalg::kPortableBackend);
}

TEST(BackendContext, ScopedUnknownBackendThrows) {
    EXPECT_THROW(linalg::ScopedBackend scope(linalg::backend("warp-core")),
                 relperf::InvalidArgument);
}

TEST(BackendContext, ScopedOverrideIsThreadLocal) {
    const linalg::ScopedBackend scope(linalg::backend(linalg::kReferenceBackend));
    ASSERT_EQ(linalg::active_backend().name, linalg::kReferenceBackend);
    std::string seen_on_worker;
    std::thread worker(
        [&] { seen_on_worker = linalg::active_backend().name; });
    worker.join();
    // The worker thread has no override: it sees the process default.
    EXPECT_EQ(seen_on_worker, linalg::kPortableBackend);
}

TEST(BackendContext, DefaultBackendIsProcessWide) {
    linalg::set_default_backend(linalg::kReferenceBackend);
    std::string seen_on_worker;
    std::thread worker(
        [&] { seen_on_worker = linalg::active_backend().name; });
    worker.join();
    linalg::set_default_backend(linalg::kPortableBackend); // restore
    EXPECT_EQ(seen_on_worker, linalg::kReferenceBackend);
    EXPECT_THROW(linalg::set_default_backend("warp-core"),
                 relperf::InvalidArgument);
    EXPECT_EQ(linalg::default_backend().name, linalg::kPortableBackend);
}
