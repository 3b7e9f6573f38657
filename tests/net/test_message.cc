/**
 * @file
 * Wire codec contract for the clearing transport's typed messages.
 *
 * The determinism bridge routes every price broadcast and bid
 * aggregate through encodeMessage()/decodeMessage(), so the codec must
 * be lossless down to the f64 bit pattern — and every malformed frame
 * class must map to the documented Status kind: ParseError for
 * truncation and grammar violations, SemanticError for magic or CRC
 * mismatches (bytes that parse but cannot be trusted).
 */

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/crc32.hh"
#include "net/message.hh"

namespace amdahl::net {
namespace {

Message
sampleBid()
{
    Message msg;
    msg.kind = MsgKind::Bid;
    msg.src = shardNode(3);
    msg.dst = kCoordinatorNode;
    msg.seq = 41;
    msg.attempt = 2;
    msg.bid.shard = 3;
    msg.bid.round = 117;
    msg.bid.partials = {
        {0, 6, 1.25},
        {1, 6, 0.0},
        {2, 7, -0.0},
        {7, 7, 3.0e-308}, // subnormal-adjacent: memcpy, not printf
        {11, 8, 12345.6789},
    };
    return msg;
}

Message
samplePrice()
{
    Message msg;
    msg.kind = MsgKind::Price;
    msg.src = kCoordinatorNode;
    msg.dst = shardNode(0);
    msg.seq = 9;
    msg.attempt = 0;
    msg.price.round = 118;
    msg.price.prices = {0.5, 1.0 / 3.0, 0.0,
                        std::numeric_limits<double>::min()};
    return msg;
}

TEST(NetMessage, BidRoundtripIsLossless)
{
    const Message msg = sampleBid();
    auto decoded = decodeMessage(encodeMessage(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const Message out = decoded.take();
    EXPECT_EQ(out.kind, MsgKind::Bid);
    EXPECT_EQ(out.src, msg.src);
    EXPECT_EQ(out.dst, msg.dst);
    EXPECT_EQ(out.seq, msg.seq);
    EXPECT_EQ(out.attempt, msg.attempt);
    EXPECT_EQ(out.bid.shard, msg.bid.shard);
    EXPECT_EQ(out.bid.round, msg.bid.round);
    ASSERT_EQ(out.bid.partials.size(), msg.bid.partials.size());
    for (std::size_t i = 0; i < msg.bid.partials.size(); ++i) {
        EXPECT_EQ(out.bid.partials[i].server,
                  msg.bid.partials[i].server);
        EXPECT_EQ(out.bid.partials[i].block, msg.bid.partials[i].block);
        // Bitwise, not value, equality: -0.0 must survive as -0.0.
        EXPECT_EQ(std::signbit(out.bid.partials[i].partial),
                  std::signbit(msg.bid.partials[i].partial));
        EXPECT_EQ(out.bid.partials[i].partial,
                  msg.bid.partials[i].partial);
    }
}

TEST(NetMessage, PriceRoundtripIsLossless)
{
    const Message msg = samplePrice();
    auto decoded = decodeMessage(encodeMessage(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const Message out = decoded.take();
    EXPECT_EQ(out.kind, MsgKind::Price);
    EXPECT_EQ(out.price.round, msg.price.round);
    ASSERT_EQ(out.price.prices.size(), msg.price.prices.size());
    for (std::size_t j = 0; j < msg.price.prices.size(); ++j)
        EXPECT_EQ(out.price.prices[j], msg.price.prices[j]);
}

TEST(NetMessage, BidFrameMatchesPinnedBytes)
{
    // Size and CRC-32 of the whole frame, recorded from a build of the
    // byte-at-a-time encoder: the shared codec moves no wire byte.
    const std::string wire = encodeMessage(sampleBid());
    EXPECT_EQ(wire.size(), 153u);
    EXPECT_EQ(crc32(wire), 0x6c36a6ccu);
}

TEST(NetMessage, PriceFrameMatchesPinnedBytes)
{
    // Recorded from a build of the byte-at-a-time encoder.
    const std::string wire = encodeMessage(samplePrice());
    EXPECT_EQ(wire.size(), 81u);
    EXPECT_EQ(crc32(wire), 0x0cf49220u);
}

TEST(NetMessage, EmptyPartialListRoundtrips)
{
    Message msg = sampleBid();
    msg.bid.partials.clear();
    auto decoded = decodeMessage(encodeMessage(msg));
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.take().bid.partials.empty());
}

TEST(NetMessage, TruncationAtEveryLengthIsParseError)
{
    const std::string wire = encodeMessage(sampleBid());
    for (std::size_t len = 0; len < wire.size(); ++len) {
        auto decoded = decodeMessage(wire.substr(0, len));
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
    std::string wire = encodeMessage(samplePrice());
    wire[0] = static_cast<char>(wire[0] ^ 0x01);
    auto decoded = decodeMessage(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().kind(), ErrorKind::SemanticError);
}

TEST(NetMessage, CorruptedPayloadFailsCrc)
{
    // Flip one bit in every payload byte position in turn: the CRC
    // must catch each (header is 33 bytes, payload follows).
    const std::string wire = encodeMessage(sampleBid());
    constexpr std::size_t kHeader = 33;
    ASSERT_GT(wire.size(), kHeader);
    for (std::size_t pos = kHeader; pos < wire.size(); ++pos) {
        std::string corrupt = wire;
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
        auto decoded = decodeMessage(corrupt);
        ASSERT_FALSE(decoded.ok()) << "payload byte " << pos;
        EXPECT_EQ(decoded.status().kind(), ErrorKind::SemanticError)
            << "payload byte " << pos;
    }
}

TEST(NetMessage, UnknownKindIsParseError)
{
    std::string wire = encodeMessage(samplePrice());
    wire[4] = 7; // kind byte: neither Bid (1) nor Price (2)
    auto decoded = decodeMessage(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().kind(), ErrorKind::ParseError);
}

TEST(NetMessage, TrailingBytesAreParseError)
{
    // Extra bytes after the declared payload length change the
    // payload-size check, not the CRC — still a ParseError.
    std::string wire = encodeMessage(samplePrice());
    wire.push_back('\0');
    auto decoded = decodeMessage(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().kind(), ErrorKind::ParseError);
}

} // namespace
} // namespace amdahl::net
