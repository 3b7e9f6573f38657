/**
 * @file
 * Wire frame contract for the clearing transport.
 *
 * The determinism bridge routes every price broadcast and bid
 * aggregate through the frame encoders and decodeFrame(), so the codec
 * must be lossless down to the f64 bit pattern — and every malformed
 * frame class must map to the documented Status kind: ParseError for
 * truncation and grammar violations, SemanticError for magic or CRC
 * mismatches (bytes that parse but cannot be trusted).
 */

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.hh"
#include "net/message.hh"

namespace amdahl::net {
namespace {

const std::vector<BlockPartial> kSamplePartials = {
    {0, 6, 1.25},
    {1, 6, 0.0},
    {2, 7, -0.0},
    {7, 7, 3.0e-308}, // subnormal-adjacent: memcpy, not printf
    {11, 8, 12345.6789},
};

const std::vector<double> kSamplePrices = {
    0.5, 1.0 / 3.0, 0.0, std::numeric_limits<double>::min()};

/** Shard 3's round-117 aggregate, seq 41, second retransmit. */
std::string
sampleBid()
{
    BidFrameWriter writer(3, 117);
    for (const BlockPartial &p : kSamplePartials)
        writer.add(p.server, p.block, p.partial);
    std::string wire = writer.take();
    stamp<kSeqOffset>(wire, 41);
    stamp<kAttemptOffset>(wire, 2);
    return wire;
}

/**
 * Shard 1's round-205 aggregate of 48 partials, seq 77: a ~1 KB
 * frame, about the size of an average bid frame in a sharded run, so
 * its payload CRC runs the 64-byte fold and not only the table tail.
 */
std::string
frameSizedBid()
{
    BidFrameWriter writer(1, 205);
    for (std::uint32_t i = 0; i < 48; ++i)
        writer.add((i * 37 + 5) % 100, i / 3,
                   1.0 / (i + 3) + 1.0e-3 * i * i);
    std::string wire = writer.take();
    stamp<kSeqOffset>(wire, 77);
    return wire;
}

/** Round 118's prices for shard 0, seq 9. */
std::string
samplePrice()
{
    std::string wire = encodePriceFrame(shardNode(0), 118, kSamplePrices);
    stamp<kSeqOffset>(wire, 9);
    return wire;
}

TEST(NetMessage, BidRoundtripIsLossless)
{
    const std::string wire = sampleBid();
    auto decoded = decodeFrame(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const Frame out = decoded.take();
    EXPECT_EQ(out.kind, MsgKind::Bid);
    EXPECT_EQ(out.src, shardNode(3));
    EXPECT_EQ(out.dst, kCoordinatorNode);
    EXPECT_EQ(out.seq, 41u);
    EXPECT_EQ(out.attempt, 2u);
    EXPECT_EQ(out.shard, 3u);
    EXPECT_EQ(out.round, 117u);
    ASSERT_EQ(out.count, kSamplePartials.size());
    for (std::size_t i = 0; i < kSamplePartials.size(); ++i) {
        const BlockPartial p = readPartial(out, i);
        EXPECT_EQ(p.server, kSamplePartials[i].server);
        EXPECT_EQ(p.block, kSamplePartials[i].block);
        // Bitwise, not value, equality: -0.0 must survive as -0.0.
        EXPECT_EQ(std::signbit(p.partial),
                  std::signbit(kSamplePartials[i].partial));
        EXPECT_EQ(p.partial, kSamplePartials[i].partial);
    }
}

TEST(NetMessage, PriceRoundtripIsLossless)
{
    const std::string wire = samplePrice();
    auto decoded = decodeFrame(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const Frame out = decoded.take();
    EXPECT_EQ(out.kind, MsgKind::Price);
    EXPECT_EQ(out.src, kCoordinatorNode);
    EXPECT_EQ(out.dst, shardNode(0));
    EXPECT_EQ(out.seq, 9u);
    EXPECT_EQ(out.attempt, 0u);
    EXPECT_EQ(out.round, 118u);
    std::vector<double> prices;
    readPrices(out, prices);
    EXPECT_EQ(prices, kSamplePrices);
}

TEST(NetMessage, ReadPricesReusesTheBuffer)
{
    const std::string wire = samplePrice();
    const Frame frame = decodeFrame(wire).take();
    std::vector<double> prices(16, 9.0);
    const double *before = prices.data();
    readPrices(frame, prices);
    EXPECT_EQ(prices.data(), before);
    EXPECT_EQ(prices, kSamplePrices);
}

TEST(NetMessage, BidFrameMatchesPinnedBytes)
{
    // Size and CRC-32 of the whole frame, recorded from a build of the
    // byte-at-a-time encoder: the shared codec moves no wire byte.
    const std::string wire = sampleBid();
    EXPECT_EQ(wire.size(), 153u);
    EXPECT_EQ(crc32(wire), 0x6c36a6ccu);
}

TEST(NetMessage, FrameSizedBidMatchesPinnedBytes)
{
    // Recorded from a build whose CRC-32 was slicing-by-8 alone, so
    // the folded path is tied to the table path's bytes.
    const std::string wire = frameSizedBid();
    EXPECT_EQ(wire.size(), 1013u);
    EXPECT_EQ(crc32(wire), 0x4866c349u);
}

TEST(NetMessage, PriceFrameMatchesPinnedBytes)
{
    // Recorded from a build of the byte-at-a-time encoder.
    const std::string wire = samplePrice();
    EXPECT_EQ(wire.size(), 81u);
    EXPECT_EQ(crc32(wire), 0x0cf49220u);
}

TEST(NetMessage, StampsMoveOnlyTheirHeaderField)
{
    // The payload CRC covers the payload alone, so stamping dst, seq
    // and attempt leaves a frame that still verifies.
    const std::string wire = samplePrice();
    std::string stamped = wire;
    stamp<kDstOffset>(stamped, shardNode(4));
    stamp<kSeqOffset>(stamped, 0x0102030405060708ull);
    stamp<kAttemptOffset>(stamped, 3);
    ASSERT_EQ(stamped.size(), wire.size());
    for (std::size_t i = 0; i < wire.size(); ++i) {
        if (i < kDstOffset || i >= kAttemptOffset + 4) {
            EXPECT_EQ(stamped[i], wire[i]) << "byte " << i;
        }
    }
    const Frame out = decodeFrame(stamped).take();
    EXPECT_EQ(out.dst, shardNode(4));
    EXPECT_EQ(out.seq, 0x0102030405060708ull);
    EXPECT_EQ(out.attempt, 3u);
}

TEST(NetMessage, EmptyPartialListRoundtrips)
{
    const std::string wire = BidFrameWriter(3, 117).take();
    auto decoded = decodeFrame(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.take().count, 0u);
}

TEST(NetMessage, TruncationAtEveryLengthIsParseError)
{
    const std::string wire = sampleBid();
    for (std::size_t len = 0; len < wire.size(); ++len) {
        auto decoded = decodeFrame(wire.substr(0, len));
        ASSERT_FALSE(decoded.ok()) << "prefix length " << len;
        // A prefix that still holds the intact header fails the
        // payload-length check (ParseError); slicing into the magic
        // itself can surface as a bad-magic SemanticError only if the
        // four bytes happen to read as some other value — here they
        // are simply missing, so everything is ParseError.
        EXPECT_EQ(decoded.status().kind(), ErrorKind::ParseError)
            << "prefix length " << len << ": "
            << decoded.status().toString();
    }
}

TEST(NetMessage, BadMagicIsSemanticError)
{
    std::string wire = samplePrice();
    wire[0] = static_cast<char>(wire[0] ^ 0x01);
    auto decoded = decodeFrame(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().kind(), ErrorKind::SemanticError);
}

TEST(NetMessage, CorruptedPayloadFailsCrc)
{
    // Flip one bit in every payload byte position in turn: the CRC
    // must catch each, before any count or record is read.
    for (const std::string &wire :
         {sampleBid(), samplePrice(), frameSizedBid()}) {
        ASSERT_GT(wire.size(), kFrameHeaderBytes);
        for (std::size_t pos = kFrameHeaderBytes; pos < wire.size();
             ++pos) {
            std::string corrupt = wire;
            corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
            auto decoded = decodeFrame(corrupt);
            ASSERT_FALSE(decoded.ok()) << "payload byte " << pos;
            EXPECT_EQ(decoded.status().kind(), ErrorKind::SemanticError)
                << "payload byte " << pos;
        }
    }
}

TEST(NetMessage, UnknownKindIsParseError)
{
    std::string wire = samplePrice();
    wire[4] = 7; // kind byte: neither Bid (1) nor Price (2)
    auto decoded = decodeFrame(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().kind(), ErrorKind::ParseError);
}

TEST(NetMessage, TrailingBytesAreParseError)
{
    // Extra bytes after the declared payload length change the
    // payload-size check, not the CRC — still a ParseError.
    std::string wire = samplePrice();
    wire.push_back('\0');
    auto decoded = decodeFrame(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().kind(), ErrorKind::ParseError);
}

} // namespace
} // namespace amdahl::net
