/**
 * @file
 * The coordinator's decode and apply step for a shard's bid frame.
 *
 * A bid frame carries only its shard's nonzero partials, so applying
 * one zeroes the shard's rows of the block x server table and then
 * writes what arrived, read straight from the wire. The partial
 * indices come off the wire: a partial outside the sender's blocks or
 * the server range, or a frame that names another shard, must panic
 * instead of writing outside the shard's rows or the table, and a
 * payload whose count disagrees with its length must be rejected by
 * decodeFrame before any record is read.
 */

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.hh"
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

/** Shard @p shard's round-5 bid frame carrying @p partials. */
std::string
aggregateFrame(std::uint32_t shard,
               const std::vector<net::BlockPartial> &partials)
{
    net::BidFrameWriter writer(shard, 5);
    for (const net::BlockPartial &p : partials)
        writer.add(p.server, p.block, p.partial);
    return writer.take();
}

/** Encode, decode and apply to @p table as shard 1's aggregate. */
void
applyAsShardOne(std::uint32_t shard,
                const std::vector<net::BlockPartial> &partials,
                std::vector<double> &table)
{
    const std::string wire = aggregateFrame(shard, partials);
    applyShardBid(net::decodeFrame(wire).take(), 1, kBlockLo, kServers,
                  table);
}

/** @p wire with its partial count set to @p count and its payload CRC
 *  recomputed, so only the count check can catch the mismatch. */
std::string
withCount(std::string wire, std::uint64_t count)
{
    amdahl::detail::storeLe<8>(wire.data() + net::kFrameHeaderBytes + 12,
                               count);
    const std::string_view payload =
        std::string_view(wire).substr(net::kFrameHeaderBytes);
    amdahl::detail::storeLe<4>(wire.data() + net::kFrameHeaderBytes - 4,
                               crc32(payload));
    return wire;
}

TEST(ShardAggregate, EmptyAggregateZeroesExactlyItsShardsRows)
{
    std::vector<double> table = filledTable();
    applyAsShardOne(1, {}, table);
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
    applyAsShardOne(1, {{0, 2, 1.5}, {2, 3, 0.25}}, table);
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
    EXPECT_THROW(applyAsShardOne(2, {}, table), PanicError);
    EXPECT_EQ(table, filledTable());
}

TEST(ShardAggregate, BlockOutsideTheShardPanics)
{
    std::vector<double> table = filledTable();
    EXPECT_THROW(applyAsShardOne(1, {{0, 1, 1.0}}, table), PanicError);
    EXPECT_THROW(applyAsShardOne(1, {{0, 4, 1.0}}, table), PanicError);
    EXPECT_THROW(applyAsShardOne(1, {{0, 1ull << 62, 1.0}}, table),
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
    EXPECT_THROW(applyAsShardOne(1, {{kServers, 3, 1.0}}, table),
                 PanicError);
    EXPECT_EQ(table[4 * kServers], 7.0);
}

TEST(ShardAggregate, TruncatedOrTrailingPayloadIsRejectedBeforeApply)
{
    // Two partials on the wire: a count of three would read past the
    // payload, a count of one would leave a record unread.
    const std::string wire =
        aggregateFrame(1, {{0, 2, 1.5}, {2, 3, 0.25}});
    ASSERT_TRUE(net::decodeFrame(withCount(wire, 2)).ok());
    for (const std::uint64_t count : {3ull, 1ull, 1ull << 60}) {
        const std::string bad = withCount(wire, count);
        auto decoded = net::decodeFrame(bad);
        ASSERT_FALSE(decoded.ok()) << "count " << count;
        EXPECT_EQ(decoded.status().kind(), ErrorKind::ParseError)
            << decoded.status().toString();
    }
    // A payload cut inside its {shard, round, count} head.
    std::string cut = wire.substr(0, net::kFrameHeaderBytes + 10);
    amdahl::detail::storeLe<4>(cut.data() + 25, 10);
    amdahl::detail::storeLe<4>(
        cut.data() + net::kFrameHeaderBytes - 4,
        crc32(std::string_view(cut).substr(net::kFrameHeaderBytes)));
    auto decoded = net::decodeFrame(cut);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().kind(), ErrorKind::ParseError);
}

TEST(ShardAggregate, PriceFrameIsNeverAppliedAsBids)
{
    // A price frame's 8-byte records must not be read as 20-byte
    // partials.
    std::vector<double> table = filledTable();
    const std::string wire =
        net::encodePriceFrame(net::shardNode(1), 5, {1.0, 2.0, 3.0});
    EXPECT_THROW(applyShardBid(net::decodeFrame(wire).take(), 1, kBlockLo,
                               kServers, table),
                 PanicError);
    EXPECT_EQ(table, filledTable());
}

} // namespace
} // namespace amdahl::core::detail
