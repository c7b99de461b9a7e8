#include "core/comparison.hpp"

#include <gtest/gtest.h>

using relperf::core::Ordering;

TEST(Ordering, ReverseFlipsDirection) {
    EXPECT_EQ(relperf::core::reverse(Ordering::Better), Ordering::Worse);
    EXPECT_EQ(relperf::core::reverse(Ordering::Worse), Ordering::Better);
    EXPECT_EQ(relperf::core::reverse(Ordering::Equivalent), Ordering::Equivalent);
}

TEST(Ordering, ReverseIsInvolution) {
    for (const Ordering o :
         {Ordering::Better, Ordering::Worse, Ordering::Equivalent}) {
        EXPECT_EQ(relperf::core::reverse(relperf::core::reverse(o)), o);
    }
}

TEST(Ordering, PaperSymbols) {
    EXPECT_STREQ(relperf::core::to_symbol(Ordering::Better), ">");
    EXPECT_STREQ(relperf::core::to_symbol(Ordering::Worse), "<");
    EXPECT_STREQ(relperf::core::to_symbol(Ordering::Equivalent), "~");
}
