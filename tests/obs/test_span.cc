/**
 * @file
 * Tests for causal span tracing (obs/span.hh): deterministic span
 * IDs, the off-by-default contract, golden byte-identity of the span
 * stream across thread and shard counts, and the critical-path
 * attribution invariant — every round's virtual-time latency is
 * charged to causes that sum exactly to it, with a pinned breakdown
 * for one faulted seed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/random.hh"
#include "core/bidding.hh"
#include "core/market.hh"
#include "exec/parallelism.hh"
#include "net/options.hh"
#include "obs/span.hh"
#include "obs/trace.hh"

namespace amdahl::obs {
namespace {

/** Scoped thread-count override; restores the previous setting. */
class ThreadGuard
{
  public:
    explicit ThreadGuard(int n) : previous_(exec::setThreadCount(n)) {}
    ~ThreadGuard() { exec::setThreadCount(previous_); }
    ThreadGuard(const ThreadGuard &) = delete;
    ThreadGuard &operator=(const ThreadGuard &) = delete;

  private:
    int previous_;
};

/** Scoped span-tracing enable; restores the previous setting. */
class SpanGuard
{
  public:
    explicit SpanGuard(bool on) : previous_(setSpanTracingEnabled(on))
    {
    }
    ~SpanGuard() { setSpanTracingEnabled(previous_); }
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    bool previous_;
};

/** A market with four real price blocks for four-shard splits. */
core::FisherMarket
spanMarket(int users = 64, int servers = 8)
{
    Rng rng(0x5fa9);
    std::vector<double> capacities(static_cast<std::size_t>(servers),
                                   16.0);
    core::FisherMarket market(std::move(capacities));
    for (int i = 0; i < users; ++i) {
        core::MarketUser user;
        user.name = "u" + std::to_string(i);
        user.budget = rng.uniform(0.5, 2.0);
        core::JobSpec job;
        job.server = static_cast<std::size_t>(i % servers);
        job.parallelFraction = rng.uniform(0.3, 0.99);
        job.weight = rng.uniform(0.5, 2.0);
        user.jobs.push_back(job);
        market.addUser(std::move(user));
    }
    return market;
}

/** One instrumented sharded solve; returns the raw trace bytes. */
std::string
capture(const core::FisherMarket &market,
        const net::ShardedOptions &sharded, int threads, bool spans,
        core::BiddingResult *result = nullptr)
{
    ThreadGuard guard(threads);
    SpanGuard spanGuard(spans);
    std::ostringstream stream;
    TraceSink sink(stream);
    {
        TraceGuard traceGuard(sink);
        core::BiddingOptions opts;
        auto r = core::solveShardedBidding(market, opts, sharded);
        if (result != nullptr)
            *result = std::move(r);
    }
    return stream.str();
}

/** Count lines carrying a span event. */
std::size_t
spanLines(const std::string &trace)
{
    std::size_t count = 0;
    std::istringstream in(trace);
    std::string line;
    while (std::getline(in, line))
        if (line.find("\"ev\":\"span\"") != std::string::npos)
            ++count;
    return count;
}

/** An unsigned field of one trace line; -1 if absent. */
std::int64_t
fieldOf(const std::string &line, const std::string &key)
{
    // Keep the object alive: get() points into it.
    const JsonObject object = parseJsonObject(line).take();
    const auto *value = object.get<std::uint64_t>(key);
    return value == nullptr ? -1 : static_cast<std::int64_t>(*value);
}

TEST(SpanTracing, IdsArePureOddAndCollisionResistant)
{
    const std::uint64_t a = spanId(SpanKind::Round, 1, 2, 3);
    EXPECT_EQ(a, spanId(SpanKind::Round, 1, 2, 3));
    EXPECT_NE(a, spanId(SpanKind::Round, 1, 2, 4));
    EXPECT_NE(a, spanId(SpanKind::Barrier, 1, 2, 3));

    // 0 is the reserved no-parent sentinel; forcing the low bit keeps
    // every id odd, so no derivation can ever produce it.
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 512; ++i) {
        const std::uint64_t id = spanId(SpanKind::Xfer, i, i / 2, i % 7);
        EXPECT_EQ(id & 1u, 1u);
        EXPECT_NE(id, 0u);
        seen.insert(id);
    }
    EXPECT_EQ(seen.size(), 512u);
}

TEST(SpanTracing, DisabledByDefaultAndInvisibleWhenOff)
{
    const auto market = spanMarket();
    net::ShardedOptions sharded;
    sharded.shards = 4;

    EXPECT_FALSE(spanTracingEnabled());
    EXPECT_EQ(spanSink(), nullptr);

    // An installed trace sink alone must not produce span events, and
    // the captured bytes must match a capture from before the span
    // layer existed — i.e. enabling and disabling leaves no residue.
    const std::string off = capture(market, sharded, 1, false);
    EXPECT_EQ(spanLines(off), 0u);
    (void)capture(market, sharded, 1, true);
    const std::string again = capture(market, sharded, 1, false);
    EXPECT_EQ(again, off);
}

TEST(SpanTracing, GoldenByteIdentityAcrossThreadsAndReruns)
{
    const auto market = spanMarket();
    for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        net::ShardedOptions sharded;
        sharded.shards = shards;
        const std::string what = "shards=" + std::to_string(shards);
        const std::string reference =
            capture(market, sharded, 1, true);
        EXPECT_GT(spanLines(reference), 0u) << what;
        for (int threads : {1, 8}) {
            EXPECT_EQ(capture(market, sharded, threads, true),
                      reference)
                << what << " threads=" << threads;
        }
    }
}

TEST(SpanTracing, ZeroFaultRoundsAttributeEverythingToCompute)
{
    const auto market = spanMarket();
    net::ShardedOptions sharded;
    sharded.shards = 4;
    core::BiddingResult result;
    const std::string trace =
        capture(market, sharded, 1, true, &result);

    // The sound-mode bridge must hold with spans on: same equilibrium
    // as the in-process kernel, bit for bit.
    const auto reference = core::solveAmdahlBidding(market);
    ASSERT_EQ(result.iterations, reference.iterations);
    for (std::size_t j = 0; j < reference.prices.size(); ++j)
        EXPECT_EQ(result.prices[j], reference.prices[j]);

    EXPECT_EQ(result.net.latencyTicks, 0u);
    EXPECT_EQ(result.net.delayTicks, 0u);
    EXPECT_EQ(result.net.retransmitTicks, 0u);
    EXPECT_EQ(result.net.partitionWaitTicks, 0u);
    EXPECT_EQ(result.net.quorumWaitTicks, 0u);

    // Every round span: zero latency, cause "compute".
    std::istringstream in(trace);
    std::string line;
    std::size_t rounds = 0;
    while (std::getline(in, line)) {
        if (line.find("\"ev\":\"span\"") == std::string::npos ||
            line.find("\"name\":\"round\"") == std::string::npos)
            continue;
        ++rounds;
        EXPECT_EQ(fieldOf(line, "ticks"), 0);
        EXPECT_EQ(fieldOf(line, "t0"), fieldOf(line, "t1"));
        EXPECT_NE(line.find("\"cause\":\"compute\""),
                  std::string::npos)
            << line;
    }
    EXPECT_EQ(rounds,
              static_cast<std::size_t>(reference.iterations));
}

TEST(SpanTracing, FaultedAttributionSumsExactlyAndIsPinned)
{
    const auto market = spanMarket();
    net::ShardedOptions sharded;
    sharded.shards = 4;
    sharded.faults.seed = 0x5eed;
    sharded.faults.lossRate = 0.2;
    sharded.faults.delayMin = 1;
    sharded.faults.delayMax = 3;
    core::BiddingResult result;
    const std::string trace =
        capture(market, sharded, 1, true, &result);

    const auto &net = result.net;
    EXPECT_EQ(net.delayTicks + net.retransmitTicks +
                  net.partitionWaitTicks + net.quorumWaitTicks,
              net.latencyTicks);
    EXPECT_GT(net.latencyTicks, 0u);

    // Per-round spans must carry the same exact-sum invariant.
    std::istringstream in(trace);
    std::string line;
    std::uint64_t totalTicks = 0;
    std::size_t rounds = 0;
    while (std::getline(in, line)) {
        if (line.find("\"ev\":\"span\"") == std::string::npos ||
            line.find("\"name\":\"round\"") == std::string::npos)
            continue;
        ++rounds;
        const std::int64_t ticks = fieldOf(line, "ticks");
        const std::int64_t sum = fieldOf(line, "c_delay") +
                                 fieldOf(line, "c_retransmit") +
                                 fieldOf(line, "c_partition") +
                                 fieldOf(line, "c_quorum");
        ASSERT_GE(ticks, 0) << line;
        EXPECT_EQ(sum, ticks) << line;
        totalTicks += static_cast<std::uint64_t>(ticks);
    }
    EXPECT_GT(rounds, 0u);
    EXPECT_EQ(totalTicks, net.latencyTicks);

    // Golden breakdown for this seed: any change to the transport's
    // draw order, the barrier's close rule, or the attribution math
    // shows up here first. Re-pin only with a DESIGN.md §15 update.
    EXPECT_EQ(net.latencyTicks, 70u);
    EXPECT_EQ(net.delayTicks, 6u);
    EXPECT_EQ(net.retransmitTicks, 0u);
    EXPECT_EQ(net.partitionWaitTicks, 0u);
    EXPECT_EQ(net.quorumWaitTicks, 64u);

    // Same-seed rerun: byte-identical span stream.
    EXPECT_EQ(capture(market, sharded, 8, true, nullptr), trace);
}

} // namespace
} // namespace amdahl::obs
