/**
 * @file
 * Typed message envelopes for the simulated clearing transport.
 *
 * Two message kinds cross the coordinator <-> shard boundary:
 *
 *  - PriceMsg: the coordinator's per-round posted-price broadcast.
 *  - BidMsg: a shard's per-(server, price-block) bid partial sums —
 *    the canonical accumulation units of the blocked price fold, so
 *    the coordinator can reassemble *bitwise* the same per-server
 *    totals the in-process kernel computes.
 *
 * Every message is serialized to explicit little-endian wire bytes (common/bytes)
 * with a fixed header {magic, kind, src, dst, seq, round, attempt,
 * payload length, payload CRC-32} and decoded back on delivery; the
 * CRC (common/crc32, the zlib polynomial) is verified before any
 * payload field is trusted. Decode failures follow the Status
 * taxonomy: ParseError for truncated/malformed frames, SemanticError
 * for a CRC or magic mismatch. The fault-free determinism bridge
 * doubles as a codec-losslessness proof: sharded runs route every
 * price and partial through encode/decode, and must still match the
 * in-process kernel byte for byte.
 */

#ifndef AMDAHL_NET_MESSAGE_HH
#define AMDAHL_NET_MESSAGE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"

namespace amdahl::net {

enum class MsgKind : std::uint8_t {
    Bid = 1,
    Price = 2,
};

[[nodiscard]] const char *toString(MsgKind kind);

/** Node ids on the wire: 0 is the coordinator, shard s is s + 1. */
inline constexpr std::uint32_t kCoordinatorNode = 0;

inline constexpr std::uint32_t
shardNode(std::size_t shard)
{
    return static_cast<std::uint32_t>(shard + 1);
}

/**
 * One (server, block) bid partial: the front-to-back sum of the
 * block's CSR bid entries on that server. A BidMsg carries only the
 * nonzero partials of its shard's blocks: the coordinator zeroes the
 * shard's rows of its table before it writes them, so every cell is
 * overwritten, never merged, and an absent partial reads as the zero
 * it stands for.
 */
struct BlockPartial
{
    std::uint32_t server = 0;
    std::uint64_t block = 0;
    double partial = 0.0;
};

/** A shard's bid aggregate for one round. */
struct BidMsg
{
    std::uint32_t shard = 0;
    std::uint64_t round = 0; ///< Global round the bids respond to.
    std::vector<BlockPartial> partials;
};

/** The coordinator's posted-price broadcast for one round. */
struct PriceMsg
{
    std::uint64_t round = 0; ///< Global round being opened.
    std::vector<double> prices;
};

/** A decoded envelope: header fields plus exactly one payload. */
struct Message
{
    MsgKind kind = MsgKind::Bid;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t seq = 0;     ///< Per-edge send sequence number.
    std::uint32_t attempt = 0; ///< 0 = first send, k = k-th retransmit.
    BidMsg bid;                ///< Valid when kind == Bid.
    PriceMsg price;            ///< Valid when kind == Price.
};

/** Serialize @p msg to wire bytes (header + CRC-protected payload). */
[[nodiscard]] std::string encodeMessage(const Message &msg);

/**
 * Parse and verify one wire frame.
 * @return ParseError on truncation/malformed fields, SemanticError on
 * magic or CRC mismatch.
 */
[[nodiscard]] Result<Message> decodeMessage(std::string_view wire);

} // namespace amdahl::net

#endif // AMDAHL_NET_MESSAGE_HH
