#include "core/comparison.hpp"

namespace relperf::core {

const char* to_symbol(Ordering o) noexcept {
    switch (o) {
        case Ordering::Worse: return "<";
        case Ordering::Equivalent: return "~";
        case Ordering::Better: return ">";
    }
    return "?";
}

} // namespace relperf::core
