/**
 * @file
 * The deterministic simulated transport: send -> (faults) -> deliver.
 *
 * VirtualTransport moves encoded frames (net/message) between the
 * coordinator and its shards in virtual time. A send stamps the
 * edge's next sequence number into a copy of the frame and consults
 * the NetFaultModel at its (edge, round, attempt) coordinate:
 * the frame is dropped (partition or loss), delayed by a bounded
 * deterministic draw, and possibly duplicated with an independent
 * delay (which is how reordering arises — a copy or a later message
 * can land first). Surviving copies enter a delivery heap ordered by
 * (tick, kind, edge, seq, copy), a total order with no ties, so the
 * barrier loop consumes them in exactly one schedule- and
 * thread-count-independent sequence.
 *
 * Sequence numbers are assigned per directed edge from the persistent
 * NetSession, so a receiver's SeqFilter (same seq seen twice on an
 * edge) stays sound across epochs and crash recovery.
 *
 * Instrumentation is strictly opt-in: a transport constructed with a
 * null NetInstruments never touches the metrics registry, so a
 * fault-free sharded run leaves *zero* net.* footprint — lazy counter
 * creation would otherwise break the byte-identity bridge against the
 * in-process kernel.
 */

#ifndef AMDAHL_NET_TRANSPORT_HH
#define AMDAHL_NET_TRANSPORT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "net/fault_model.hh"
#include "net/message.hh"
#include "net/session.hh"

namespace amdahl::obs {
class Counter;
class Histogram;
} // namespace amdahl::obs

namespace amdahl::net {

/**
 * Pre-resolved handles into the metrics registry for the hot path.
 * Bound once per solve, and only when the fault model is active.
 */
struct NetInstruments
{
    obs::Counter *sent = nullptr;
    obs::Counter *delivered = nullptr;
    obs::Counter *lost = nullptr;
    obs::Counter *partitionDrops = nullptr;
    obs::Counter *duplicated = nullptr;
    obs::Counter *dupSuppressed = nullptr;
    obs::Counter *retransmits = nullptr;
    obs::Counter *staleBidRounds = nullptr;
    obs::Counter *degradedRounds = nullptr;
    obs::Counter *quorumCollapses = nullptr;
    obs::Counter *healedReentries = nullptr;
    obs::Histogram *latency = nullptr;
    obs::Histogram *quorum = nullptr;

    /** Resolve every handle from the global registry. */
    static NetInstruments bind();
};

/** One frame the barrier loop should process. */
struct Delivery
{
    Ticks at = 0;     ///< Virtual arrival tick.
    Ticks sentAt = 0; ///< Virtual send tick (for the latency histogram).
    std::uint64_t edge = 0;
    std::string wire; ///< Encoded frame; decode before trusting.
};

class VirtualTransport
{
  public:
    /**
     * @param model   Fault realizations; must outlive the transport.
     * @param session Persistent per-edge sequence counters; edgeSeq
     *                must already be sized to cover every edge used.
     * @param inst    Metrics handles, or nullptr for zero footprint.
     */
    VirtualTransport(const NetFaultModel &model, NetSession &session,
                     const NetInstruments *inst)
        : model_(&model), session_(&session), inst_(inst)
    {}

    /**
     * Send the encoded @p frame over @p edge at virtual time @p now.
     * Stamps the edge's next sequence number into the copy it
     * enqueues (the duplicated copy reuses it — that is what makes it
     * a duplicate), applies partition, loss, delay, and duplication
     * at the frame's stamped attempt, and enqueues the surviving
     * copies. A dropped frame is never copied.
     *
     * @p streamRound keys the loss/delay/duplication substreams — a
     * retransmit passes the *original* round so its (edge, round,
     * attempt) coordinate stays unique — while @p partitionRound is
     * the round the wire is crossed in, which is what a scheduled
     * partition window cuts against.
     */
    void send(std::string_view frame, std::uint64_t edge,
              std::size_t shard, std::uint64_t streamRound,
              std::uint64_t partitionRound, Ticks now);

    /** Arrival tick and edge of the earliest pending delivery. */
    [[nodiscard]] bool peekNext(Ticks &at, std::uint64_t &edge) const;

    /** Pop the earliest pending delivery if it arrives by @p upTo. */
    bool popNext(Ticks upTo, Delivery &out);

    [[nodiscard]] std::size_t pendingCount() const
    {
        return heap_.size();
    }

  private:
    struct Entry
    {
        Delivery delivery;
        std::uint64_t seq = 0;
        std::uint32_t kindRank = 0;
        std::uint32_t copy = 0;

        bool
        operator>(const Entry &other) const
        {
            const auto key = [](const Entry &e) {
                return std::tuple(e.delivery.at, e.kindRank,
                                  e.delivery.edge, e.seq, e.copy);
            };
            return key(*this) > key(other);
        }
    };

    void enqueue(Delivery delivery, std::uint64_t seq,
                 std::uint32_t copy);

    const NetFaultModel *model_;
    NetSession *session_;
    const NetInstruments *inst_;
    /** Min-heap on the Entry order (std::push_heap / std::pop_heap
     *  with std::greater), so a pop can move the frame out. */
    std::vector<Entry> heap_;
};

/**
 * Exact per-edge duplicate filter for one solve's receivers. Every
 * frame a solve receives was sent by its own transport, so on each
 * edge its seq lies in [the edge's counter when the filter was made,
 * the edge's counter now): a bitmap over that range remembers each
 * sighting, in any arrival order, without hashing.
 */
class SeqFilter
{
  public:
    /** @p session's edgeSeq must already cover every edge used. */
    explicit SeqFilter(const NetSession &session)
        : session_(&session), base_(session.edgeSeq),
          seen_(session.edgeSeq.size())
    {}

    /** @return true the first time (@p edge, @p seq) is seen, false
     *  for a duplicate; panics on a seq this solve never sent. */
    bool firstSighting(std::uint64_t edge, std::uint64_t seq);

  private:
    const NetSession *session_;
    std::vector<std::uint64_t> base_;
    std::vector<std::vector<bool>> seen_;
};

} // namespace amdahl::net

#endif // AMDAHL_NET_TRANSPORT_HH
