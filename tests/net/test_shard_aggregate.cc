/**
 * @file
 * The coordinator's apply step for a shard's bid aggregate.
 *
 * A BidMsg carries only its shard's nonzero partials, so applying one
 * zeroes the shard's rows of the block x server table and then writes
 * what arrived. The partial indices come off the wire: a partial
 * outside the sender's blocks or the server range, or an aggregate
 * that names another shard, must panic instead of writing outside the
 * shard's rows or the table.
 */

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/bidding_kernel.hh"

namespace amdahl::core::detail {
namespace {

// Three shards over six blocks: shard 1 owns blocks [2, 4).
const std::vector<std::size_t> kBlockLo = {0, 2, 4, 6};
constexpr std::size_t kServers = 3;

std::vector<double>
filledTable()
{
    return std::vector<double>(6 * kServers, 7.0);
}

net::BidMsg
aggregate(std::uint32_t shard, std::vector<net::BlockPartial> partials)
{
    net::BidMsg bid;
    bid.shard = shard;
    bid.round = 5;
    bid.partials = std::move(partials);
    return bid;
}

TEST(ShardAggregate, EmptyAggregateZeroesExactlyItsShardsRows)
{
    std::vector<double> table = filledTable();
    applyShardBid(aggregate(1, {}), 1, kBlockLo, kServers, table);
    for (std::size_t b = 0; b < 6; ++b) {
        for (std::size_t j = 0; j < kServers; ++j) {
            const double want = (b >= 2 && b < 4) ? 0.0 : 7.0;
            EXPECT_EQ(table[b * kServers + j], want)
                << "block " << b << ", server " << j;
        }
    }
}

TEST(ShardAggregate, PartialsOverwriteTheZeroedRows)
{
    std::vector<double> table = filledTable();
    applyShardBid(aggregate(1, {{0, 2, 1.5}, {2, 3, 0.25}}), 1,
                  kBlockLo, kServers, table);
    const std::vector<double> want = {
        7.0, 7.0, 7.0,  7.0, 7.0, 7.0,  // shard 0
        1.5, 0.0, 0.0,  0.0, 0.0, 0.25, // shard 1
        7.0, 7.0, 7.0,  7.0, 7.0, 7.0,  // shard 2
    };
    EXPECT_EQ(table, want);
}

TEST(ShardAggregate, ForeignShardIdPanics)
{
    std::vector<double> table = filledTable();
    EXPECT_THROW(applyShardBid(aggregate(2, {}), 1, kBlockLo, kServers,
                               table),
                 PanicError);
}

TEST(ShardAggregate, BlockOutsideTheShardPanics)
{
    std::vector<double> table = filledTable();
    EXPECT_THROW(applyShardBid(aggregate(1, {{0, 1, 1.0}}), 1, kBlockLo,
                               kServers, table),
                 PanicError);
    EXPECT_THROW(applyShardBid(aggregate(1, {{0, 4, 1.0}}), 1, kBlockLo,
                               kServers, table),
                 PanicError);
    EXPECT_THROW(applyShardBid(aggregate(1, {{0, 1ull << 62, 1.0}}), 1,
                               kBlockLo, kServers, table),
                 PanicError);
    // Nothing outside shard 1's rows was written.
    for (const std::size_t b : {0u, 1u, 4u, 5u}) {
        for (std::size_t j = 0; j < kServers; ++j)
            EXPECT_EQ(table[b * kServers + j], 7.0);
    }
}

TEST(ShardAggregate, ServerOutOfRangePanics)
{
    std::vector<double> table = filledTable();
    // Server kServers of block 3 would land on block 4, server 0:
    // shard 2's row.
    EXPECT_THROW(applyShardBid(aggregate(1, {{kServers, 3, 1.0}}), 1,
                               kBlockLo, kServers, table),
                 PanicError);
    EXPECT_EQ(table[4 * kServers], 7.0);
}

} // namespace
} // namespace amdahl::core::detail
