/**
 * @file
 * Delivery-order and bookkeeping contracts of VirtualTransport.
 *
 * The barrier loop's determinism rests on the transport exposing one
 * total delivery order — (tick, kind, edge, seq, copy) with prices
 * ranked ahead of bids at equal ticks — and on per-edge sequence
 * numbers surviving in the session. These tests drive the transport
 * directly, without the solver on top.
 */

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "net/fault_model.hh"
#include "net/message.hh"
#include "net/session.hh"
#include "net/transport.hh"
#include "obs/span.hh"
#include "obs/trace.hh"

namespace amdahl::net {
namespace {

std::string
bidMsg(std::size_t shard, std::uint64_t round)
{
    return BidFrameWriter(static_cast<std::uint32_t>(shard), round).take();
}

std::string
priceMsg(std::size_t shard, std::uint64_t round)
{
    return encodePriceFrame(shardNode(shard), round, {1.0, 2.0});
}

NetSession
sessionFor(std::size_t shards)
{
    NetSession sess;
    sess.edgeSeq.assign(2 * shards, 0);
    return sess;
}

TEST(NetTransport, AssignsSequenceNumbersPerEdge)
{
    const NetFaultModel sound(NetFaultOptions{}, {});
    NetSession sess = sessionFor(2);
    VirtualTransport transport(sound, sess, nullptr);

    transport.send(bidMsg(0, 0), bidEdge(0), 0, 0, 0, 0);
    transport.send(bidMsg(0, 1), bidEdge(0), 0, 1, 1, 0);
    transport.send(bidMsg(1, 0), bidEdge(1), 1, 0, 0, 0);
    EXPECT_EQ(sess.edgeSeq[bidEdge(0)], 2u);
    EXPECT_EQ(sess.edgeSeq[bidEdge(1)], 1u);
    EXPECT_EQ(sess.edgeSeq[priceEdge(0)], 0u);

    // Decoded frames carry the per-edge counter values in send order.
    Delivery d;
    std::vector<std::uint64_t> seqs;
    while (transport.popNext(0, d))
        seqs.push_back(decodeFrame(d.wire).take().seq);
    ASSERT_EQ(seqs.size(), 3u);
    // Total order at one tick: bidEdge(0)=1 before bidEdge(1)=3,
    // seq 0 before seq 1 within an edge.
    EXPECT_EQ(seqs[0], 0u);
    EXPECT_EQ(seqs[1], 1u);
    EXPECT_EQ(seqs[2], 0u);
}

TEST(NetTransport, PricesDrainBeforeBidsAtEqualTicks)
{
    const NetFaultModel sound(NetFaultOptions{}, {});
    NetSession sess = sessionFor(1);
    VirtualTransport transport(sound, sess, nullptr);

    // Send the bid first: arrival order must still put the price
    // broadcast ahead, because edge parity ranks it.
    transport.send(bidMsg(0, 4), bidEdge(0), 0, 4, 4, 7);
    transport.send(priceMsg(0, 5), priceEdge(0), 0, 5, 5, 7);

    Delivery d;
    ASSERT_TRUE(transport.popNext(7, d));
    EXPECT_EQ(d.edge, priceEdge(0));
    ASSERT_TRUE(transport.popNext(7, d));
    EXPECT_EQ(d.edge, bidEdge(0));
}

TEST(NetTransport, PopRespectsTheUpToBound)
{
    NetFaultOptions delayed;
    delayed.delayMin = 5;
    delayed.delayMax = 5;
    const NetFaultModel model(delayed, {});
    NetSession sess = sessionFor(1);
    VirtualTransport transport(model, sess, nullptr);

    transport.send(bidMsg(0, 0), bidEdge(0), 0, 0, 0, 10);
    Ticks at = 0;
    std::uint64_t edge = 0;
    ASSERT_TRUE(transport.peekNext(at, edge));
    EXPECT_EQ(at, Ticks{15});
    EXPECT_EQ(edge, bidEdge(0));

    Delivery d;
    EXPECT_FALSE(transport.popNext(14, d)); // one tick early: stays
    ASSERT_TRUE(transport.popNext(15, d));  // exactly at bound: pops
    EXPECT_EQ(d.at, Ticks{15});
    EXPECT_EQ(d.sentAt, Ticks{10});
    EXPECT_FALSE(transport.peekNext(at, edge));
}

TEST(NetTransport, PartitionDropsBothDirectionsButKeepsSequencing)
{
    const std::vector<PartitionWindow> windows = {{0, 2, 4}};
    const NetFaultModel model(NetFaultOptions{}, windows);
    NetSession sess = sessionFor(1);
    VirtualTransport transport(model, sess, nullptr);

    transport.send(priceMsg(0, 2), priceEdge(0), 0, 2, 2, 0);
    transport.send(bidMsg(0, 2), bidEdge(0), 0, 2, 2, 0);
    EXPECT_EQ(transport.pendingCount(), 0u); // both dropped
    // Sequence numbers advance even for dropped frames: a drop is a
    // network event, not a send that never happened.
    EXPECT_EQ(sess.edgeSeq[priceEdge(0)], 1u);
    EXPECT_EQ(sess.edgeSeq[bidEdge(0)], 1u);

    // Outside the window the same edges deliver again.
    transport.send(priceMsg(0, 4), priceEdge(0), 0, 4, 4, 0);
    EXPECT_EQ(transport.pendingCount(), 1u);
}

TEST(NetTransport, PartitionCutsByPartitionRoundNotStreamRound)
{
    // A retransmit keys its substreams by the original round but
    // crosses the wire "now": a partition that opened since must drop
    // it even though its stream round predates the window.
    const std::vector<PartitionWindow> windows = {{0, 10, 20}};
    const NetFaultModel model(NetFaultOptions{}, windows);
    NetSession sess = sessionFor(1);
    VirtualTransport transport(model, sess, nullptr);

    transport.send(bidMsg(0, 8), bidEdge(0), 0, 8, 12, 0);
    EXPECT_EQ(transport.pendingCount(), 0u);
    transport.send(bidMsg(0, 8), bidEdge(0), 0, 8, 9, 0);
    EXPECT_EQ(transport.pendingCount(), 1u);
}

TEST(NetTransport, DuplicationEnqueuesACopyWithTheSameSeq)
{
    NetFaultOptions dup;
    dup.duplicationRate = 0.9;
    dup.delayMax = 4;
    dup.seed = 0xd0b1e;
    const NetFaultModel model(dup, {});
    NetSession sess = sessionFor(1);
    VirtualTransport transport(model, sess, nullptr);

    std::size_t duplicated = 0;
    for (std::uint64_t g = 0; g < 32; ++g) {
        const std::size_t before = transport.pendingCount();
        transport.send(bidMsg(0, g), bidEdge(0), 0, g, g, 0);
        const std::size_t added = transport.pendingCount() - before;
        ASSERT_GE(added, 1u);
        ASSERT_LE(added, 2u);
        if (added == 2)
            ++duplicated;
    }
    EXPECT_GT(duplicated, 0u);

    // Both copies of a duplicated frame decode to the same seq — that
    // identity is what receiver-side suppression keys on.
    NetSession sess2 = sessionFor(1);
    VirtualTransport t2(model, sess2, nullptr);
    std::uint64_t dupRound = 0;
    for (std::uint64_t g = 0; g < 32; ++g) {
        if (model.duplicated(bidEdge(0), g, 0)) {
            dupRound = g;
            break;
        }
    }
    t2.send(bidMsg(0, dupRound), bidEdge(0), 0, dupRound, dupRound, 0);
    ASSERT_EQ(t2.pendingCount(), 2u);
    Delivery a;
    Delivery b;
    ASSERT_TRUE(t2.popNext(100, a));
    ASSERT_TRUE(t2.popNext(100, b));
    EXPECT_EQ(decodeFrame(a.wire).take().seq,
              decodeFrame(b.wire).take().seq);
    EXPECT_LE(a.at, b.at); // delivery order is sorted by arrival
}

/** The xfer spans one duplicated send emits, parsed, in emission order. */
std::vector<JsonObject>
duplicatedSendSpans(const NetFaultModel &model, std::uint64_t round,
                    Delivery &first)
{
    std::ostringstream stream;
    obs::TraceSink sink(stream);
    {
        obs::TraceGuard traceGuard(sink);
        const bool previous = obs::setSpanTracingEnabled(true);
        NetSession sess = sessionFor(1);
        VirtualTransport transport(model, sess, nullptr);
        transport.send(bidMsg(0, round), bidEdge(0), 0, round, round, 0);
        obs::setSpanTracingEnabled(previous);
        EXPECT_TRUE(transport.popNext(100, first));
    }
    std::vector<JsonObject> spans;
    std::istringstream lines(stream.str());
    for (std::string line; std::getline(lines, line);)
        spans.push_back(parseJsonObject(line).take());
    return spans;
}

TEST(NetTransport, DuplicateLabelsFollowArrivalOrder)
{
    // The two copies of a duplicated frame draw independent delays, so
    // the copy sent second can land first. The receiver applies the
    // first arrival and suppresses the other, so that copy's span is
    // the "delivered" one; on a tie the heap pops copy 0 first. Span
    // IDs keep the copy index.
    NetFaultOptions dup;
    dup.duplicationRate = 0.9;
    dup.delayMin = 1;
    dup.delayMax = 9;
    dup.seed = 5;
    const NetFaultModel model(dup, {});
    const std::uint64_t edge = bidEdge(0);
    std::uint64_t overtaken = 0;
    std::uint64_t tied = 0;
    for (std::uint64_t g = 1; g < 64 && (overtaken == 0 || tied == 0);
         ++g) {
        if (!model.duplicated(edge, g, 0))
            continue;
        const Ticks delay = model.delay(edge, g, 0);
        const Ticks copyDelay = model.duplicateDelay(edge, g, 0);
        if (copyDelay < delay && overtaken == 0)
            overtaken = g;
        if (copyDelay == delay && tied == 0)
            tied = g;
    }
    ASSERT_NE(overtaken, 0u);
    ASSERT_NE(tied, 0u);

    const auto outcome = [](const JsonObject &span) {
        return *span.get<std::string>("outcome");
    };
    const auto copyId = [&](std::uint64_t g, std::uint64_t copy) {
        return obs::spanId(obs::SpanKind::Xfer, edge, g, copy);
    };
    Delivery first;
    auto spans = duplicatedSendSpans(model, overtaken, first);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(*spans[0].get<std::uint64_t>("id"), copyId(overtaken, 0));
    EXPECT_EQ(outcome(spans[0]), "duplicate");
    EXPECT_EQ(*spans[1].get<std::uint64_t>("id"), copyId(overtaken, 1));
    EXPECT_EQ(outcome(spans[1]), "delivered");
    EXPECT_EQ(*spans[1].get<std::uint64_t>("t1"),
              model.duplicateDelay(edge, overtaken, 0));
    EXPECT_EQ(first.at, model.duplicateDelay(edge, overtaken, 0));

    spans = duplicatedSendSpans(model, tied, first);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(*spans[0].get<std::uint64_t>("id"), copyId(tied, 0));
    EXPECT_EQ(outcome(spans[0]), "delivered");
    EXPECT_EQ(outcome(spans[1]), "duplicate");
}

TEST(NetTransport, FramesSurviveTheWireIntact)
{
    const NetFaultModel sound(NetFaultOptions{}, {});
    NetSession sess = sessionFor(1);
    VirtualTransport transport(sound, sess, nullptr);

    transport.send(encodePriceFrame(shardNode(0), 12, {0.125, -0.0, 3.0e9}),
                   priceEdge(0), 0, 12, 12, 3);
    Delivery d;
    ASSERT_TRUE(transport.popNext(3, d));
    auto decoded = decodeFrame(d.wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const Frame out = decoded.take();
    EXPECT_EQ(out.round, 12u);
    std::vector<double> prices;
    readPrices(out, prices);
    ASSERT_EQ(prices.size(), 3u);
    EXPECT_EQ(prices[0], 0.125);
    EXPECT_TRUE(std::signbit(prices[1]));
    EXPECT_EQ(prices[2], 3.0e9);
}

/** Byte positions at which @p a and @p b differ (same length). */
std::vector<std::size_t>
differingBytes(const std::string &a, const std::string &b)
{
    EXPECT_EQ(a.size(), b.size());
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
        if (a[i] != b[i])
            at.push_back(i);
    }
    return at;
}

TEST(NetFrameIdentity, PriceCopiesOfOneRoundDifferOnlyInDstAndSeq)
{
    // The exchange's broadcast: one encode, each shard's copy stamped
    // with its dst. Edge seqs differ, so the seq field differs too.
    const NetFaultModel sound(NetFaultOptions{}, {});
    NetSession sess = sessionFor(3);
    sess.edgeSeq = {5, 0, 900, 0, 1ull << 40, 0};
    VirtualTransport transport(sound, sess, nullptr);
    std::string frame =
        encodePriceFrame(shardNode(0), 31, {0.25, 1.5, 1e-9});
    for (std::size_t s = 0; s < 3; ++s) {
        stamp<kDstOffset>(frame, shardNode(s));
        transport.send(frame, priceEdge(s), s, 31, 31, 0);
    }
    std::vector<std::string> wires;
    for (Delivery d; transport.popNext(0, d);)
        wires.push_back(d.wire);
    ASSERT_EQ(wires.size(), 3u);
    for (std::size_t s = 1; s < 3; ++s) {
        for (const std::size_t i : differingBytes(wires[0], wires[s]))
            EXPECT_TRUE(i >= kDstOffset && i < kAttemptOffset)
                << "shard " << s << " differs at byte " << i;
        const Frame f = decodeFrame(wires[s]).take();
        EXPECT_EQ(f.dst, shardNode(s));
        EXPECT_EQ(f.seq, sess.edgeSeq[priceEdge(s)] - 1);
    }
}

TEST(NetFrameIdentity, RetransmitDiffersOnlyInAttemptAndSeq)
{
    // The exchange's retransmit: the cached bid frame with its attempt
    // re-stamped, sent again on the same edge.
    const NetFaultModel sound(NetFaultOptions{}, {});
    NetSession sess = sessionFor(1);
    VirtualTransport transport(sound, sess, nullptr);
    BidFrameWriter writer(0, 17);
    writer.add(2, 0, 0.75);
    writer.add(5, 0, 3.5);
    std::string cached = writer.take();
    transport.send(cached, bidEdge(0), 0, 17, 17, 0);
    stamp<kAttemptOffset>(cached, 1);
    transport.send(cached, bidEdge(0), 0, 17, 18, 8);
    Delivery original;
    Delivery retransmit;
    ASSERT_TRUE(transport.popNext(0, original));
    ASSERT_TRUE(transport.popNext(8, retransmit));
    for (const std::size_t i :
         differingBytes(original.wire, retransmit.wire))
        EXPECT_TRUE(i >= kSeqOffset && i < kAttemptOffset + 4)
            << "retransmit differs at byte " << i;
    const Frame f = decodeFrame(retransmit.wire).take();
    EXPECT_EQ(f.attempt, 1u);
    EXPECT_EQ(f.seq, 1u);
}

TEST(NetSeqFilter, SuppressesADuplicatedCopy)
{
    NetSession sess = sessionFor(2);
    sess.edgeSeq[bidEdge(1)] = 3;
    SeqFilter filter(sess);
    sess.edgeSeq[bidEdge(1)] = 6; // this solve sent seqs 3, 4, 5
    EXPECT_TRUE(filter.firstSighting(bidEdge(1), 4));
    EXPECT_FALSE(filter.firstSighting(bidEdge(1), 4));
    EXPECT_TRUE(filter.firstSighting(bidEdge(1), 3));
    EXPECT_FALSE(filter.firstSighting(bidEdge(1), 3));
}

TEST(NetSeqFilter, LaterSeqArrivingFirstIsStillApplied)
{
    // Reordering: seq 2 lands before 0 and 1 on the same edge; every
    // seq is new once, whatever the arrival order, and edges are
    // independent.
    NetSession sess = sessionFor(1);
    SeqFilter filter(sess);
    sess.edgeSeq = {3, 3};
    EXPECT_TRUE(filter.firstSighting(priceEdge(0), 2));
    EXPECT_TRUE(filter.firstSighting(priceEdge(0), 0));
    EXPECT_TRUE(filter.firstSighting(bidEdge(0), 2));
    EXPECT_TRUE(filter.firstSighting(priceEdge(0), 1));
    EXPECT_FALSE(filter.firstSighting(priceEdge(0), 2));
    EXPECT_FALSE(filter.firstSighting(bidEdge(0), 2));
}

TEST(NetSeqFilter, SeqOutsideThisSolveIsAProtocolBug)
{
    NetSession sess = sessionFor(1);
    sess.edgeSeq = {10, 10};
    SeqFilter filter(sess);
    sess.edgeSeq = {12, 10};
    EXPECT_THROW((void)filter.firstSighting(priceEdge(0), 9), PanicError);
    EXPECT_THROW((void)filter.firstSighting(priceEdge(0), 12), PanicError);
    EXPECT_THROW((void)filter.firstSighting(bidEdge(0), 10), PanicError);
    EXPECT_THROW((void)filter.firstSighting(2, 0), PanicError);
    EXPECT_TRUE(filter.firstSighting(priceEdge(0), 11));
}

} // namespace
} // namespace amdahl::net
