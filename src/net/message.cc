#include "net/message.hh"

#include <utility>

#include "common/crc32.hh"

namespace amdahl::net {
namespace {

/**
 * Wire format (all integers little-endian):
 *
 *   u32 magic 'AMNT'   u8 kind   u32 src   u32 dst
 *   u64 seq   u32 attempt   u32 payloadSize   u32 payloadCrc
 *   payload bytes...
 *
 * Bid payload:   u32 shard, u64 round, u64 count,
 *                count * { u32 server, u64 block, f64 partial }
 *                (the shard's nonzero partials only; see BlockPartial)
 * Price payload: u64 round, u64 count, count * f64
 *
 * The fields are written with common/bytes.hh, the codec the durable
 * state uses too; a frame is built in one buffer and its payload
 * length and CRC patched in place.
 */
constexpr std::uint32_t kMagic = 0x544e4d41; // "AMNT"

/** Header offsets of the fields patched once the payload is written. */
constexpr std::size_t kPayloadSizeOffset = 25;
constexpr std::size_t kPayloadCrcOffset = 29;

/** Offset of a bid frame's partial count. */
constexpr std::size_t kBidCountOffset = kFrameHeaderBytes + 12;

Status
parseError(const char *what)
{
    return Status::error(ErrorKind::ParseError, 0, "net message: ", what);
}

/** Write a header with seq, attempt, payload length and CRC all 0. */
void
putHeader(ByteWriter &w, MsgKind kind, std::uint32_t src, std::uint32_t dst)
{
    w.putU32(kMagic);
    w.putU8(static_cast<std::uint8_t>(kind));
    w.putU32(src);
    w.putU32(dst);
    w.putU64(0);
    w.putU32(0);
    w.putU32(0);
    w.putU32(0);
}

/** Patch the payload length and CRC into @p frame's header. */
std::string
seal(std::string frame)
{
    const std::string_view payload =
        std::string_view(frame).substr(kFrameHeaderBytes);
    detail::storeLe<4>(frame.data() + kPayloadSizeOffset, payload.size());
    detail::storeLe<4>(frame.data() + kPayloadCrcOffset, crc32(payload));
    return frame;
}

} // namespace

std::string
encodePriceFrame(std::uint32_t dst, std::uint64_t round,
                 const std::vector<double> &prices)
{
    ByteWriter w;
    w.reserve(kFrameHeaderBytes + 16 + 8 * prices.size());
    putHeader(w, MsgKind::Price, kCoordinatorNode, dst);
    w.putU64(round);
    w.putF64Vector(prices);
    return seal(w.take());
}

BidFrameWriter::BidFrameWriter(std::uint32_t shard, std::uint64_t round,
                               std::size_t maxPartials)
{
    w.reserve(kFrameHeaderBytes + 20 + kPartialBytes * maxPartials);
    putHeader(w, MsgKind::Bid, shardNode(shard), kCoordinatorNode);
    w.putU32(shard);
    w.putU64(round);
    w.putU64(0); // Count, patched by take().
}

std::string
BidFrameWriter::take()
{
    std::string frame = w.take();
    detail::storeLe<8>(frame.data() + kBidCountOffset, count);
    return seal(std::move(frame));
}

Result<Frame>
decodeFrame(std::string_view wire)
{
    ByteReader head(wire.substr(0, kFrameHeaderBytes));
    if (head.readU32() != kMagic)
        return head.ok() ? Status::error(ErrorKind::SemanticError, 0,
                                         "net message: bad magic")
                         : parseError("truncated header");
    Frame frame;
    const std::uint8_t kind = head.readU8();
    if (head.ok() && kind != static_cast<std::uint8_t>(MsgKind::Bid) &&
        kind != static_cast<std::uint8_t>(MsgKind::Price))
        return parseError("unknown kind");
    frame.kind = static_cast<MsgKind>(kind);
    frame.src = head.readU32();
    frame.dst = head.readU32();
    frame.seq = head.readU64();
    frame.attempt = head.readU32();
    const std::uint32_t payloadSize = head.readU32();
    const std::uint32_t payloadCrc = head.readU32();
    if (!head.ok())
        return parseError("truncated header");
    const std::string_view payload = wire.substr(kFrameHeaderBytes);
    if (payload.size() != payloadSize)
        return parseError("payload length mismatch");
    if (crc32(payload) != payloadCrc)
        return Status::error(ErrorKind::SemanticError, 0,
                             "net message: payload CRC mismatch");

    // The count must account for every remaining byte exactly, so the
    // readers can address the records without a bounds check.
    ByteReader body(payload);
    const bool bid = frame.kind == MsgKind::Bid;
    if (bid)
        frame.shard = body.readU32();
    frame.round = body.readU64();
    frame.count = body.readU64();
    const std::size_t record = bid ? kPartialBytes : 8;
    if (!body.ok() || frame.count > body.remaining() / record)
        return parseError(bid ? "truncated bid payload"
                              : "truncated price payload");
    if (frame.count * record != body.remaining())
        return parseError("trailing payload bytes");
    frame.records = payload.data() + (payload.size() - body.remaining());
    return frame;
}

} // namespace amdahl::net
