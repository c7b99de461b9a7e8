#include "campaign/sharder.hpp"

#include "support/error.hpp"

#include <gtest/gtest.h>

#include <set>

namespace campaign = relperf::campaign;

TEST(Sharder, PlansPartitionEveryAssignmentExactlyOnce) {
    for (const std::size_t count : {1u, 2u, 3u, 5u, 8u}) {
        const campaign::Sharder sharder(8, count);
        std::set<std::size_t> seen;
        std::size_t total = 0;
        for (std::size_t shard = 0; shard < count; ++shard) {
            const campaign::ShardPlan plan = sharder.plan(shard);
            EXPECT_EQ(plan.count, count);
            EXPECT_FALSE(plan.assignment_indices.empty());
            for (const std::size_t index : plan.assignment_indices) {
                EXPECT_TRUE(seen.insert(index).second)
                    << "index " << index << " owned twice (K=" << count << ")";
                EXPECT_EQ(sharder.owner_of(index), plan.index);
                ++total;
            }
        }
        EXPECT_EQ(total, 8u) << "K=" << count;
    }
}

TEST(Sharder, ShardsAreStridedForLoadBalance) {
    const campaign::Sharder sharder(8, 3);
    EXPECT_EQ(sharder.plan(0).assignment_indices,
              (std::vector<std::size_t>{0, 3, 6}));
    EXPECT_EQ(sharder.plan(1).assignment_indices,
              (std::vector<std::size_t>{1, 4, 7}));
    EXPECT_EQ(sharder.plan(2).assignment_indices,
              (std::vector<std::size_t>{2, 5}));
}

TEST(Sharder, SingleShardOwnsEverything) {
    const campaign::Sharder sharder(4, 1);
    EXPECT_EQ(sharder.plan(0).assignment_indices,
              (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Sharder, RejectsDegenerateSplits) {
    EXPECT_THROW(campaign::Sharder(8, 0), relperf::InvalidArgument);
    EXPECT_THROW(campaign::Sharder(0, 1), relperf::InvalidArgument);
    EXPECT_THROW(campaign::Sharder(4, 5), relperf::InvalidArgument);
    const campaign::Sharder sharder(4, 2);
    EXPECT_THROW((void)sharder.plan(2), relperf::InvalidArgument);
    EXPECT_THROW((void)sharder.owner_of(4), relperf::InvalidArgument);
}

TEST(ShardRef, ParsesAndValidates) {
    const campaign::ShardRef ref = campaign::parse_shard_ref("2/4");
    EXPECT_EQ(ref.index, 2u);
    EXPECT_EQ(ref.count, 4u);
    EXPECT_EQ(campaign::parse_shard_ref(" 0/1 ").count, 1u);

    EXPECT_THROW((void)campaign::parse_shard_ref("4/4"),
                 relperf::InvalidArgument); // 0-based: max index is K-1
    EXPECT_THROW((void)campaign::parse_shard_ref("1"),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)campaign::parse_shard_ref("a/b"),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)campaign::parse_shard_ref("1/0"),
                 relperf::InvalidArgument);
    EXPECT_THROW((void)campaign::parse_shard_ref("1/2/3"),
                 relperf::InvalidArgument);
}
