#include "net/transport.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace amdahl::net {

namespace {

/**
 * Emit one xfer span for a message copy. The span covers the wire
 * interval send → arrival; dropped copies ("lost", "partition_drop")
 * are zero-width at the send tick. Of a duplicated frame's two copies,
 * the one that arrives first is "delivered" and the other
 * "duplicate"; the span ID keeps the copy index either way. The
 * (edge, round, attempt) triple in the fields is exactly the fault
 * substream coordinate the NetFaultModel drew from, so the analyzer
 * can replay any realization question offline.
 */
void
emitXferSpan(obs::TraceSink &sink, std::uint64_t edge,
             std::size_t shard, std::uint64_t streamRound,
             std::uint32_t attempt, std::uint32_t copy, Ticks t0,
             Ticks t1, const char *outcome)
{
    const std::uint64_t id = obs::spanId(
        obs::SpanKind::Xfer, edge, streamRound,
        (static_cast<std::uint64_t>(attempt) << 1) | copy);
    obs::SpanEvent(sink, edge % 2 == 0 ? "price_xfer" : "bid_xfer",
                   id, obs::currentSpanParent(), t0, t1)
        .field("edge", edge)
        .field("shard", shard)
        .field("round", streamRound)
        .field("attempt", attempt)
        .field("outcome", outcome);
}

} // namespace

NetInstruments
NetInstruments::bind()
{
    obs::MetricsRegistry &reg = obs::metrics();
    NetInstruments inst;
    inst.sent = &reg.counter("net.msgs_sent");
    inst.delivered = &reg.counter("net.msgs_delivered");
    inst.lost = &reg.counter("net.msgs_lost");
    inst.partitionDrops = &reg.counter("net.partition_drops");
    inst.duplicated = &reg.counter("net.msgs_duplicated");
    inst.dupSuppressed = &reg.counter("net.dup_suppressed");
    inst.retransmits = &reg.counter("net.retransmits");
    inst.staleBidRounds = &reg.counter("net.stale_bid_rounds");
    inst.degradedRounds = &reg.counter("net.degraded_rounds");
    inst.quorumCollapses = &reg.counter("net.quorum_collapses");
    inst.healedReentries = &reg.counter("net.healed_reentries");
    inst.latency = &reg.histogram(
        "net.msg_latency", {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
                            128.0, 256.0, 512.0, 1024.0});
    inst.quorum = &reg.histogram(
        "net.quorum", {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
    return inst;
}

void
VirtualTransport::send(std::string_view frame, std::uint64_t edge,
                       std::size_t shard, std::uint64_t streamRound,
                       std::uint64_t partitionRound, Ticks now)
{
    if (edge >= session_->edgeSeq.size())
        panic("net edge ", edge, " outside session sequence space (",
              session_->edgeSeq.size(), ")");
    if (frame.size() < kFrameHeaderBytes)
        panic("net frame of ", frame.size(), " bytes has no header");
    const std::uint64_t seq = session_->edgeSeq[edge]++;
    obs::TraceSink *spans = obs::spanSink();
    if (inst_)
        inst_->sent->add();
    const std::uint64_t g = streamRound;
    const auto attempt = static_cast<std::uint32_t>(
        detail::loadLe<4>(frame.data() + kAttemptOffset));
    const bool cut = model_->partitioned(shard, partitionRound);
    if (cut || model_->lost(edge, g, attempt)) {
        if (inst_)
            (cut ? inst_->partitionDrops : inst_->lost)->add();
        if (spans)
            emitXferSpan(*spans, edge, shard, g, attempt, 0, now, now,
                         cut ? "partition_drop" : "lost");
        return;
    }
    Delivery delivery;
    delivery.sentAt = now;
    delivery.edge = edge;
    delivery.at = now + model_->delay(edge, g, attempt);
    delivery.wire = frame;
    stamp<kSeqOffset>(delivery.wire, seq);
    const bool dup = model_->duplicated(edge, g, attempt);
    const Ticks copyAt =
        dup ? now + model_->duplicateDelay(edge, g, attempt) : delivery.at;
    // The receiver applies whichever copy arrives first and suppresses
    // the other, so the outcome labels follow arrival order; at equal
    // ticks copy 0 pops first, as the heap orders them.
    const bool copyFirst = copyAt < delivery.at;
    if (spans)
        emitXferSpan(*spans, edge, shard, g, attempt, 0, now,
                     delivery.at, copyFirst ? "duplicate" : "delivered");
    if (dup) {
        if (inst_)
            inst_->duplicated->add();
        Delivery copy = delivery;
        copy.at = copyAt;
        if (spans)
            emitXferSpan(*spans, edge, shard, g, attempt, 1, now,
                         copy.at, copyFirst ? "delivered" : "duplicate");
        enqueue(std::move(copy), seq, 1);
    }
    enqueue(std::move(delivery), seq, 0);
}

void
VirtualTransport::enqueue(Delivery delivery, std::uint64_t seq,
                          std::uint32_t copy)
{
    Entry entry;
    entry.seq = seq;
    entry.copy = copy;
    // Rank price broadcasts ahead of bid aggregates at the same tick
    // so the delivery order is a total function of the frame alone.
    entry.kindRank = delivery.edge % 2 == 0 ? 0 : 1;
    entry.delivery = std::move(delivery);
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

bool
VirtualTransport::peekNext(Ticks &at, std::uint64_t &edge) const
{
    if (heap_.empty())
        return false;
    at = heap_.front().delivery.at;
    edge = heap_.front().delivery.edge;
    return true;
}

bool
VirtualTransport::popNext(Ticks upTo, Delivery &out)
{
    if (heap_.empty() || heap_.front().delivery.at > upTo)
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    out = std::move(heap_.back().delivery);
    heap_.pop_back();
    if (inst_) {
        inst_->delivered->add();
        inst_->latency->record(
            static_cast<double>(out.at - out.sentAt));
    }
    return true;
}

bool
SeqFilter::firstSighting(std::uint64_t edge, std::uint64_t seq)
{
    if (edge >= seen_.size() || seq < base_[edge] ||
        seq >= session_->edgeSeq[edge])
        panic("net edge ", edge, " delivered seq ", seq,
              " that this solve never sent");
    std::vector<bool> &bits = seen_[edge];
    const std::uint64_t i = seq - base_[edge];
    if (i >= bits.size()) // Doubling keeps the growth amortized O(1).
        bits.resize(std::max(session_->edgeSeq[edge] - base_[edge],
                             2 * bits.size()));
    if (bits[i])
        return false;
    bits[i] = true;
    return true;
}

} // namespace amdahl::net
