/**
 * @file
 * Wire frames for the simulated clearing transport.
 *
 * Two frame kinds cross the coordinator <-> shard boundary:
 *
 *  - Price: the coordinator's per-round posted-price broadcast.
 *  - Bid: a shard's per-(server, price-block) bid partial sums — the
 *    canonical accumulation units of the blocked price fold, so the
 *    coordinator can reassemble *bitwise* the same per-server totals
 *    the in-process kernel computes.
 *
 * A frame is explicit little-endian wire bytes (common/bytes) with a
 * fixed header {magic, kind, src, dst, seq, attempt, payload length,
 * payload CRC-32} in front of its payload. The CRC
 * (common/crc32, the zlib polynomial) covers the payload only, so a
 * sender encodes a payload once and stamps dst, seq and attempt into
 * copies of the frame without re-CRCing: one price encode serves every
 * shard of a round, and a retransmit is its original with a new
 * attempt.
 *
 * decodeFrame checks magic, kind, payload length, CRC and the
 * payload's record count before anything is trusted, and returns a
 * view of the wire bytes; readPrices and readPartial then read the
 * records in place. Decode failures follow the Status taxonomy:
 * ParseError for truncated/malformed frames, SemanticError for a CRC
 * or magic mismatch. The fault-free determinism bridge doubles as a
 * codec-losslessness proof: sharded runs route every price and
 * partial through the frames, and must still match the in-process
 * kernel byte for byte.
 */

#ifndef AMDAHL_NET_MESSAGE_HH
#define AMDAHL_NET_MESSAGE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hh"
#include "common/status.hh"

namespace amdahl::net {

enum class MsgKind : std::uint8_t {
    Bid = 1,
    Price = 2,
};

/** Node ids on the wire: 0 is the coordinator, shard s is s + 1. */
inline constexpr std::uint32_t kCoordinatorNode = 0;

inline constexpr std::uint32_t
shardNode(std::size_t shard)
{
    return static_cast<std::uint32_t>(shard + 1);
}

/** Header bytes; the payload follows. */
inline constexpr std::size_t kFrameHeaderBytes = 33;

/** Bytes per bid partial record {u32 server, u64 block, f64 partial}. */
inline constexpr std::size_t kPartialBytes = 20;

/** Header offsets of the fields a sender stamps into an encoded frame:
 *  u32 dst, u64 seq, u32 attempt. */
inline constexpr std::size_t kDstOffset = 9;
inline constexpr std::size_t kSeqOffset = 13;
inline constexpr std::size_t kAttemptOffset = 21;

/**
 * Overwrite the header field at @p Offset (one of the three above) of
 * an encoded frame with @p v. The payload CRC does not cover the
 * header, so a stamped copy needs no re-CRC.
 */
template <std::size_t Offset>
inline void
stamp(std::string &frame, std::uint64_t v)
{
    detail::storeLe<Offset == kSeqOffset ? 8 : 4>(frame.data() + Offset, v);
}

/**
 * One (server, block) bid partial: the front-to-back sum of the
 * block's CSR bid entries on that server. A bid frame carries only the
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

/**
 * A frame that passed decodeFrame: its header fields, its payload's
 * round (and shard, for a bid), and @c count fixed-width records at
 * @c records — 8-byte prices or kPartialBytes partials. A view: it
 * points into the wire bytes it was decoded from.
 */
struct Frame
{
    MsgKind kind = MsgKind::Bid;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t seq = 0;     ///< Per-edge send sequence number.
    std::uint32_t attempt = 0; ///< 0 = first send, k = k-th retransmit.
    std::uint32_t shard = 0;   ///< Bid frames: the sending shard.
    std::uint64_t round = 0;   ///< Global round opened / responded to.
    std::uint64_t count = 0;
    const char *records = nullptr;
};

/** Encode a price frame from the coordinator to @p dst; seq and
 *  attempt are 0 until stamped. */
[[nodiscard]] std::string encodePriceFrame(std::uint32_t dst,
                                           std::uint64_t round,
                                           const std::vector<double> &prices);

/** Builds shard @p shard's bid frame for @p round, one partial at a
 *  time, addressed to the coordinator; seq and attempt are 0. Room
 *  for @p maxPartials is reserved up front. */
class BidFrameWriter
{
  public:
    BidFrameWriter(std::uint32_t shard, std::uint64_t round,
                   std::size_t maxPartials = 0);

    void
    add(std::uint32_t server, std::uint64_t block, double partial)
    {
        w.putU32(server);
        w.putU64(block);
        w.putF64(partial);
        ++count;
    }

    /** @return The frame, with its count, length and CRC patched. */
    [[nodiscard]] std::string take();

  private:
    ByteWriter w;
    std::uint64_t count = 0;
};

/**
 * Parse and verify one wire frame.
 * @return ParseError on truncation/malformed fields, SemanticError on
 * magic or CRC mismatch.
 */
[[nodiscard]] Result<Frame> decodeFrame(std::string_view wire);

/** Read a price frame's prices into @p out, reusing its capacity. */
inline void
readPrices(const Frame &frame, std::vector<double> &out)
{
    out.resize(static_cast<std::size_t>(frame.count));
    for (std::size_t j = 0; j < out.size(); ++j)
        out[j] = std::bit_cast<double>(
            detail::loadLe<8>(frame.records + 8 * j));
}

/** @return Partial @p i < count of a bid frame. */
inline BlockPartial
readPartial(const Frame &frame, std::size_t i)
{
    const char *p = frame.records + kPartialBytes * i;
    return {static_cast<std::uint32_t>(detail::loadLe<4>(p)),
            detail::loadLe<8>(p + 4),
            std::bit_cast<double>(detail::loadLe<8>(p + 12))};
}

} // namespace amdahl::net

#endif // AMDAHL_NET_MESSAGE_HH
