/**
 * @file
 * The sharded price exchange: one round of Amdahl Bidding as an
 * epoch-barrier protocol over src/net/.
 *
 * Users are grouped into shards of whole price blocks. Each round the
 * coordinator encodes one price frame and sends each shard a copy
 * stamped with its address; a shard that receives it updates its
 * users' bids (proportional response, shared kernel), ships its
 * nonzero per-(server, block) partials back as a bid frame, and arms
 * retransmit timers with deterministic exponential backoff; a
 * retransmit is that frame with its attempt re-stamped. The
 * coordinator overwrites the sender's rows of its dense block x
 * server partial table from every applied aggregate (applyShardBid)
 * and waits on a virtual-time barrier: the
 * round closes when every shard's round-r aggregate has arrived, or
 * at the barrier deadline, whichever is first. A deadline expiry
 * clears a partial-quorum degraded round on the stale table — counted,
 * reasoned (deadline_expired / partition), and staleness-bounded —
 * and a quorum below the configured floor aborts the solve for the
 * FallbackPolicy ladder to absorb. Healed shards re-enter with damped
 * warm-start updates.
 *
 * Everything else about the solve — validation, initial bids, the
 * kernel and its cache, the bid-loss mask, convergence, anytime
 * deadlines, history, finalization — belongs to the one round loop in
 * bidding.cc, which calls this exchange where the in-process path
 * updates bids and gathers prices.
 *
 * Determinism: all randomness is counter-based (per-edge, round,
 * attempt substreams), all time is virtual, message processing
 * follows the transport's total delivery order, and the price fold is
 * the blocked canonical fold of bidding_kernel.hh — so with zero
 * fault rates any shard count reproduces the in-process exchange byte
 * for byte, and with faults any (shard count, thread count) pair
 * reproduces itself.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hh"
#include "common/logging.hh"
#include "core/bidding.hh"
#include "core/bidding_kernel.hh"
#include "exec/thread_pool.hh"
#include "net/fault_model.hh"
#include "net/options.hh"
#include "net/session.hh"
#include "net/transport.hh"
#include "obs/degraded.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/timer.hh"

namespace amdahl::core::detail {

namespace {

/** A shard that has not heard a newer price broadcast retransmits its
 *  bid aggregate at send + kRetransmitBase * 2^(k-1) ticks for attempts
 *  k = 1..kMaxRetransmits (deterministic exponential backoff). */
constexpr net::Ticks kRetransmitBase = 8;
constexpr std::uint32_t kMaxRetransmits = 3;

/** Damping multiplier applied (on top of BiddingOptions::damping) to a
 *  shard's first bid update after it missed one or more price
 *  broadcasts, so a healed shard cannot yank prices. */
constexpr double kReentryDamping = 0.5;

/** @return @p session, its edge sequence space grown to @p edges. */
net::NetSession *
withEdges(net::NetSession *session, std::size_t edges)
{
    if (session->edgeSeq.size() < edges)
        session->edgeSeq.resize(edges, 0);
    return session;
}

} // namespace

ShardedExchange::ShardedExchange(BidKernel &kernel_, double damping_,
                                 const net::ShardedOptions &sharded_,
                                 net::NetSession *session,
                                 NetOutcomeStats &stats_)
    : kernel(kernel_), damping(damping_), sharded(sharded_),
      stats(stats_), n(kernel_.userCount), m(kernel_.serverCount),
      updateHist(obs::timeHistogram("time.bidding.update_us")),
      pricesHist(obs::timeHistogram("time.bidding.prices_us")),
      blockCount(priceBlockCount(n)),
      S(std::min(sharded_.shards, blockCount)), blockLo(S + 1),
      shardOf(n),
      sess(withEdges(session ? session : &localSession,
                     2 * sharded_.shards)),
      base(sess->globalRound), clock(sess->ticks),
      model(sharded_.faults, sharded_.partitions),
      inst(model.active() ? &(instStorage = net::NetInstruments::bind())
                          : nullptr),
      transport(model, *sess, inst),
      spans(obs::spanSink()), table(blockCount * m, 0.0),
      scratch(blockCount * m, 0.0),
      lastApplied(S, static_cast<std::int64_t>(base) - 1),
      lastPriceRound(S, static_cast<std::int64_t>(base) - 1),
      priceTickLatest(S, clock.now()), postedPrices(S), lastBid(S),
      cells(S), seen(*sess), batched(S, 0),
      dampShard(S, damping_),
      quorumMin(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::ceil(
                 sharded_.quorumFloor * static_cast<double>(S))))),
      minQuorum(S)
{
    for (std::size_t s = 0; s <= S; ++s)
        blockLo[s] = s * blockCount / S;
    for (std::size_t s = 0; s < S; ++s) {
        const std::size_t uLo =
            std::min(n, blockLo[s] * kPriceBlockUsers);
        const std::size_t uHi =
            std::min(n, blockLo[s + 1] * kPriceBlockUsers);
        for (std::size_t i = uLo; i < uHi; ++i)
            shardOf[i] = static_cast<std::uint32_t>(s);
    }
    accumulateBlockPartials(kernel, 0, blockCount, table);
    // The (block, server) cells holding a CSR entry, ascending: the
    // only cells a shard's partials can make nonzero.
    std::vector<unsigned char> used(blockCount * m, 0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t e = kernel.userOffset[i];
             e < kernel.userOffset[i + 1]; ++e)
            used[i / kPriceBlockUsers * m + kernel.server[e]] = 1;
    }
    for (std::size_t c = 0; c < used.size(); ++c) {
        if (used[c])
            cells[shardOf[c / m * kPriceBlockUsers]].push_back(c);
    }
}

int
ShardedExchange::nextTimer() const
{
    const auto it = std::min_element(
        timers.begin(), timers.end(),
        [](const RetransmitTimer &a, const RetransmitTimer &b) {
            return std::tuple(a.tick, a.shard, a.attempt) <
                   std::tuple(b.tick, b.shard, b.attempt);
        });
    return it == timers.end() ? -1 : static_cast<int>(it - timers.begin());
}

// One iteration of a shard's protocol reaction to a price it just
// applied: recompute its block partials and ship the aggregate,
// arming the backoff timers.
void
ShardedExchange::sendShardBid(std::size_t s, std::uint64_t forRound,
                              std::uint64_t partitionRound, net::Ticks at)
{
    accumulateBlockPartials(kernel, blockLo[s], blockLo[s + 1], scratch);
    net::BidFrameWriter bid(static_cast<std::uint32_t>(s), forRound,
                            cells[s].size());
    // Only the nonzero partials travel, in (block, server) order:
    // applyShardBid zeroes the shard's rows before writing them
    // (bidding_kernel.hh).
    for (const std::size_t c : cells[s]) {
        if (scratch[c] != 0.0)
            bid.add(static_cast<std::uint32_t>(c % m), c / m, scratch[c]);
    }
    lastBid[s] = bid.take();
    transport.send(lastBid[s], net::bidEdge(s), s, forRound,
                   partitionRound, at);
    for (std::uint32_t k = 1; k <= kMaxRetransmits; ++k)
        timers.push_back(
            {at + kRetransmitBase * (net::Ticks{1} << (k - 1)), s,
             forRound, k});
}

ShardedExchange::Round
ShardedExchange::round(int it, const std::vector<double> &posted,
                       const std::vector<unsigned char> &lost,
                       std::vector<double> &newPrices)
{
    g = base + static_cast<std::uint64_t>(it);
    T = clock.now();
    const net::Ticks deadlineTick = T + sharded.barrierDeadline;
    // A retransmit timer is cancelled once its shard has heard a newer
    // price by the time the timer fires.
    const auto obsolete = [&](const RetransmitTimer &t) {
        return lastPriceRound[t.shard] > static_cast<std::int64_t>(t.round) &&
               priceTickLatest[t.shard] <= t.tick;
    };

    // Round and barrier span IDs: pure functions of the causal
    // parent (the fallback rung or epoch) and the global round.
    // The parent scope makes the barrier the causal parent of
    // every xfer span the transport emits inside this window.
    roundParent = spans ? obs::currentSpanParent() : 0;
    roundId = spans ? obs::spanId(obs::SpanKind::Round, roundParent, g)
                    : 0;
    const std::uint64_t barrierId =
        spans ? obs::spanId(obs::SpanKind::Barrier, roundId, g) : 0;
    std::optional<obs::SpanParentScope> xferScope;
    if (spans)
        xferScope.emplace(barrierId);

    // Open the round: broadcast this round's prices to every shard
    // (through the codec, even when the network is sound). One
    // encode; each shard's copy differs only in its stamped dst.
    std::string priceFrame = net::encodePriceFrame(net::shardNode(0), g,
                                                   posted);
    for (std::size_t s = 0; s < S; ++s) {
        net::stamp<net::kDstOffset>(priceFrame, net::shardNode(s));
        transport.send(priceFrame, net::priceEdge(s), s, g, g, T);
    }

    std::size_t freshCount = 0;
    net::Ticks closeTick = deadlineTick;
    roundFresh = false;
    // The delivery that completed the barrier, for critical-path
    // attribution: which shard closed the round, and when its
    // winning bid copy left the wire.
    closerShard = 0;
    net::Ticks closeSentAt = T;

    // Shards whose price application is pending at batchTick:
    // (shard, healed re-entry?). All price deliveries sharing a
    // tick are folded into one fan-out so the sound-mode task
    // structure matches the in-process exchange exactly.
    std::vector<std::pair<std::size_t, bool>> batch;
    net::Ticks batchTick = 0;

    const auto runBatch = [&](net::Ticks tick,
                              std::uint64_t partitionRound) {
        if (batch.empty())
            return;
        std::fill(batched.begin(), batched.end(), 0);
        for (const auto &[s, healed] : batch) {
            dampShard[s] = damping;
            if (healed) {
                dampShard[s] *= kReentryDamping;
                ++stats.healedReentries;
                if (inst)
                    inst->healedReentries->add();
            }
            batched[s] = 1;
        }
        {
            // One fan-out per batch tick, full span, fixed grain:
            // in the sound case the single batch covers every
            // user and this is bit- and task-identical to the
            // in-process update, so exec.tasks agrees
            // across the determinism bridge. The per-user loop
            // stays scalar: users in one chunk may sit in different
            // shards with different posted prices, and both kernels
            // are bit-identical anyway.
            obs::ScopedTimer update_timer(updateHist);
            exec::parallelFor(
                0, n, kUserGrain,
                [&](std::size_t ulo, std::size_t uhi) {
                    for (std::size_t i = ulo; i < uhi; ++i) {
                        if (!batched[shardOf[i]] ||
                            (!lost.empty() && lost[i]))
                            continue;
                        updateOneUser(kernel, i,
                                      postedPrices[shardOf[i]],
                                      dampShard[shardOf[i]]);
                    }
                });
        }
        if (spans)
            obs::SpanEvent(
                *spans, "compute",
                obs::spanId(obs::SpanKind::Compute, roundId, tick),
                barrierId, tick, tick)
                .field("round", g)
                .field("shards", batch.size());
        for (const auto &[s, healed] : batch) {
            sendShardBid(s, static_cast<std::uint64_t>(lastPriceRound[s]),
                         partitionRound, tick);
        }
        batch.clear();
    };

    while (true) {
        net::Ticks dTick = 0;
        std::uint64_t dEdge = 0;
        const bool haveDelivery = transport.peekNext(dTick, dEdge);
        const int ti = nextTimer();
        const bool timerEligible =
            ti >= 0 &&
            timers[static_cast<std::size_t>(ti)].tick <= deadlineTick;
        // Deliveries win ties against timers: a same-tick price
        // broadcast must cancel the retransmission it obsoletes.
        const bool pickDelivery =
            haveDelivery && dTick <= deadlineTick &&
            (!timerEligible ||
             dTick <= timers[static_cast<std::size_t>(ti)].tick);

        // Flush the pending price batch before processing
        // anything that is not another price at the batch tick
        // (the transport ranks prices ahead of bids at equal
        // ticks, so same-tick prices drain contiguously). The
        // batch's sends change the heap, so re-peek afterwards.
        if (!batch.empty() &&
            !(pickDelivery && dEdge % 2 == 0 && dTick == batchTick)) {
            runBatch(batchTick, g);
            continue;
        }

        if (pickDelivery) {
            net::Delivery d;
            if (!transport.popNext(deadlineTick, d))
                fatal("transport peek/pop disagree");
            const auto decoded = net::decodeFrame(d.wire);
            if (!decoded.ok())
                panic("simulated transport corrupted a frame: ",
                      decoded.status().toString());
            const net::Frame &frame = decoded.value();
            if (!seen.firstSighting(d.edge, frame.seq)) {
                if (inst)
                    inst->dupSuppressed->add();
                continue;
            }
            const std::size_t s = d.edge / 2;
            const bool priceEdge = d.edge % 2 == 0;
            ensure(frame.kind == (priceEdge ? net::MsgKind::Price
                                            : net::MsgKind::Bid),
                   "frame kind does not match edge ", d.edge);
            if (priceEdge) {
                // Price broadcast to shard s: read into its posted
                // prices only once it is known to be new.
                const auto rp = static_cast<std::int64_t>(frame.round);
                if (rp <= lastPriceRound[s])
                    continue; // Stale broadcast; a newer one won.
                const bool healed = rp > lastPriceRound[s] + 1;
                lastPriceRound[s] = rp;
                priceTickLatest[s] = d.at;
                net::readPrices(frame, postedPrices[s]);
                batch.emplace_back(s, healed);
                batchTick = d.at;
                continue;
            }
            // Bid aggregate from shard s.
            const auto rb = static_cast<std::int64_t>(frame.round);
            if (rb <= lastApplied[s]) {
                // A retransmit or duplicate of an aggregate the
                // table already reflects.
                if (inst)
                    inst->dupSuppressed->add();
                continue;
            }
            applyShardBid(frame, s, blockLo, m, table);
            lastApplied[s] = rb;
            if (rb == static_cast<std::int64_t>(g)) {
                ++freshCount;
                if (freshCount == S) {
                    closeTick = d.at;
                    roundFresh = true;
                    closerShard = s;
                    closeSentAt = d.sentAt;
                    break;
                }
            }
            continue;
        }

        if (timerEligible) {
            const RetransmitTimer t = timers[static_cast<std::size_t>(ti)];
            timers.erase(timers.begin() + ti);
            if (obsolete(t))
                continue;
            net::stamp<net::kAttemptOffset>(lastBid[t.shard], t.attempt);
            transport.send(lastBid[t.shard], net::bidEdge(t.shard),
                           t.shard, t.round, g, t.tick);
            ++stats.retransmits;
            if (inst)
                inst->retransmits->add();
            continue;
        }
        break; // Nothing left inside this round's window.
    }
    clock.advanceTo(roundFresh ? closeTick : deadlineTick);

    // Drop timers that can never fire (their shard already moved
    // on) so the pending set stays bounded.
    timers.erase(std::remove_if(timers.begin(), timers.end(), obsolete),
                 timers.end());

    // Barrier resolution: quorum accounting and degraded-round
    // bookkeeping. Unreachable when the network is sound (every
    // round is fresh), so none of it can perturb the bridge.
    std::uint64_t usable = 0;
    for (std::size_t s = 0; s < S; ++s) {
        if (static_cast<std::int64_t>(g) - lastApplied[s] <=
            static_cast<std::int64_t>(sharded.maxStaleRounds))
            ++usable;
    }
    minQuorum = std::min(minQuorum, usable);
    if (inst)
        inst->quorum->record(static_cast<double>(usable));

    const std::uint64_t staleServed =
        static_cast<std::uint64_t>(S) - freshCount;
    bool partitionHit = false;
    if (!roundFresh) {
        for (std::size_t s = 0; s < S; ++s) {
            if (lastApplied[s] < static_cast<std::int64_t>(g) &&
                model.partitioned(s, g))
                partitionHit = true;
        }
    }

    // Critical-path attribution. A fresh round's latency is the
    // closing chain itself: price transit to the closing shard,
    // retransmit backoff until the winning bid copy left, and
    // that copy's transit back — three legs that sum to
    // closeTick - T exactly (compute is instantaneous in virtual
    // time). A degraded or collapsed round waited out the whole
    // barrier window instead: charged to partition wait when a
    // scheduled partition silenced a missing shard, else to
    // quorum wait.
    roundEnd = roundFresh ? closeTick : deadlineTick;
    const net::Ticks latency = roundEnd - T;
    cDelay = 0;
    cRetransmit = 0;
    cPartition = 0;
    cQuorum = 0;
    if (roundFresh) {
        const net::Ticks priceAt = priceTickLatest[closerShard];
        cDelay = (priceAt - T) + (closeTick - closeSentAt);
        cRetransmit = closeSentAt - priceAt;
    } else if (partitionHit) {
        cPartition = latency;
    } else {
        cQuorum = latency;
    }
    stats.latencyTicks += latency;
    stats.delayTicks += cDelay;
    stats.retransmitTicks += cRetransmit;
    stats.partitionWaitTicks += cPartition;
    stats.quorumWaitTicks += cQuorum;

    if (spans) {
        obs::SpanEvent(*spans, "barrier", barrierId, roundId, T, roundEnd)
            .field("round", g)
            .field("deadline", deadlineTick)
            .field("fresh", freshCount)
            .field("quorum", usable);
    }

    if (!roundFresh) {
        if (usable < quorumMin) {
            stats.quorumCollapsed = true;
            if (inst)
                inst->quorumCollapses->add();
            obs::recordDegraded({"barrier", obs::DegradedReason::QuorumFloor,
                                 g, usable, staleServed});
            emitRoundSpan();
            return {false, true};
        }
        const obs::DegradedReason reason =
            partitionHit ? obs::DegradedReason::Partition
                         : obs::DegradedReason::DeadlineExpired;
        ++stats.degradedRounds;
        stats.staleBidRounds += staleServed;
        if (reason == obs::DegradedReason::Partition)
            stats.partitionDegraded = true;
        if (inst) {
            inst->degradedRounds->add();
            inst->staleBidRounds->add(staleServed);
        }
        obs::recordDegraded({"barrier", reason, g, usable, staleServed});
    }

    {
        obs::ScopedTimer prices_timer(pricesHist);
        foldPriceTable(table, blockCount, kernel, newPrices);
    }
    if (spans)
        obs::SpanEvent(*spans, "fold",
                       obs::spanId(obs::SpanKind::Fold, roundId, g),
                       roundId, roundEnd, roundEnd)
            .field("round", g);
    return {roundFresh, false};
}

void
ShardedExchange::emitRoundSpan() const
{
    if (!spans)
        return;
    const net::Ticks latency = roundEnd - T;
    obs::SpanCause cause = obs::SpanCause::Compute;
    if (latency > 0) {
        if (cPartition > 0)
            cause = obs::SpanCause::PartitionWait;
        else if (cQuorum > 0)
            cause = obs::SpanCause::QuorumWait;
        else if (cRetransmit > cDelay)
            cause = obs::SpanCause::Retransmit;
        else
            cause = obs::SpanCause::NetDelay;
    }
    obs::SpanEvent(*spans, "round", roundId, roundParent, T, roundEnd)
        .field("round", g)
        .field("fresh", roundFresh)
        .field("closer", closerShard)
        .field("cause", obs::toString(cause))
        .field("ticks", latency)
        .field("c_compute", std::uint64_t{0})
        .field("c_delay", cDelay)
        .field("c_retransmit", cRetransmit)
        .field("c_partition", cPartition)
        .field("c_quorum", cQuorum);
}

void
ShardedExchange::finish(int iterations)
{
    stats.minQuorum = minQuorum;
    sess->ticks = clock.now();
    sess->globalRound = base + static_cast<std::uint64_t>(iterations);
}

} // namespace amdahl::core::detail
