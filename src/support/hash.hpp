#pragma once
//! \file hash.hpp
//! FNV-1a 64-bit, the one non-cryptographic digest in the library: the
//! campaign plan hash and the result cache's tally checksum and measurement
//! digest all fold bytes through it.

#include <cstdint>
#include <string_view>

namespace relperf::support {

/// FNV-1a's 64-bit offset basis: the state before any byte is folded in.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// Folds `bytes` into the running FNV-1a 64-bit state `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view bytes, std::uint64_t h = kFnv1aOffset) noexcept {
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace relperf::support
