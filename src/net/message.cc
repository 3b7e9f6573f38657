#include "net/message.hh"

#include "common/bytes.hh"
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
 * state uses too; the frame is built in one buffer and its payload CRC
 * patched in place.
 */
constexpr std::uint32_t kMagic = 0x544e4d41; // "AMNT"

/** Header bytes; the payload CRC is the header's last field. */
constexpr std::size_t kHeaderBytes = 33;

/** Bytes per bid partial record {u32 server, u64 block, f64 partial}. */
constexpr std::size_t kPartialBytes = 20;

Status
parseError(const char *what)
{
    return Status::error(ErrorKind::ParseError, 0, "net message: ", what);
}

} // namespace

const char *
toString(MsgKind kind)
{
    return kind == MsgKind::Bid ? "bid" : "price";
}

std::string
encodeMessage(const Message &msg)
{
    const std::size_t payloadSize =
        msg.kind == MsgKind::Bid
            ? 20 + kPartialBytes * msg.bid.partials.size()
            : 16 + 8 * msg.price.prices.size();
    ByteWriter w;
    w.reserve(kHeaderBytes + payloadSize);
    w.putU32(kMagic);
    w.putU8(static_cast<std::uint8_t>(msg.kind));
    w.putU32(msg.src);
    w.putU32(msg.dst);
    w.putU64(msg.seq);
    w.putU32(msg.attempt);
    w.putU32(static_cast<std::uint32_t>(payloadSize));
    w.putU32(0); // Payload CRC, patched once the payload is written.
    if (msg.kind == MsgKind::Bid) {
        w.putU32(msg.bid.shard);
        w.putU64(msg.bid.round);
        w.putU64(msg.bid.partials.size());
        for (const BlockPartial &p : msg.bid.partials) {
            w.putU32(p.server);
            w.putU64(p.block);
            w.putF64(p.partial);
        }
    } else {
        w.putU64(msg.price.round);
        w.putF64Vector(msg.price.prices);
    }
    const std::string_view payload =
        std::string_view(w.bytes()).substr(kHeaderBytes);
    w.patchU32(kHeaderBytes - 4, crc32(payload));
    return w.take();
}

Result<Message>
decodeMessage(std::string_view wire)
{
    ByteReader head(wire.substr(0, kHeaderBytes));
    if (head.readU32() != kMagic)
        return head.ok() ? Status::error(ErrorKind::SemanticError, 0,
                                         "net message: bad magic")
                         : parseError("truncated header");
    Message msg;
    const std::uint8_t kind = head.readU8();
    if (head.ok() && kind != static_cast<std::uint8_t>(MsgKind::Bid) &&
        kind != static_cast<std::uint8_t>(MsgKind::Price))
        return parseError("unknown kind");
    msg.kind = static_cast<MsgKind>(kind);
    msg.src = head.readU32();
    msg.dst = head.readU32();
    msg.seq = head.readU64();
    msg.attempt = head.readU32();
    const std::uint32_t payloadSize = head.readU32();
    const std::uint32_t payloadCrc = head.readU32();
    if (!head.ok())
        return parseError("truncated header");
    const std::string_view payload = wire.substr(kHeaderBytes);
    if (payload.size() != payloadSize)
        return parseError("payload length mismatch");
    if (crc32(payload) != payloadCrc)
        return Status::error(ErrorKind::SemanticError, 0,
                             "net message: payload CRC mismatch");

    ByteReader body(payload);
    if (msg.kind == MsgKind::Bid) {
        msg.bid.shard = body.readU32();
        msg.bid.round = body.readU64();
        const std::uint64_t count = body.readU64();
        if (!body.ok() || count > body.remaining() / kPartialBytes)
            return parseError("truncated bid payload");
        msg.bid.partials.resize(static_cast<std::size_t>(count));
        for (BlockPartial &p : msg.bid.partials) {
            p.server = body.readU32();
            p.block = body.readU64();
            p.partial = body.readF64();
        }
    } else {
        msg.price.round = body.readU64();
        msg.price.prices = body.readF64Vector();
        if (!body.ok())
            return parseError("truncated price payload");
    }
    body.expectEnd();
    if (!body.ok())
        return parseError("trailing payload bytes");
    return msg;
}

} // namespace amdahl::net
