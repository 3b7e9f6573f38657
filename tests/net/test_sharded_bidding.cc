/**
 * @file
 * The determinism bridge: sharded clearing vs the in-process kernel.
 *
 * The acceptance criterion of the sharded clearing engine (DESIGN.md
 * §14): with every fault rate zero, any shard count at any thread
 * count must reproduce solveAmdahlBidding() *byte for byte* — bids,
 * prices, allocations, iteration count, the trace stream, and the
 * metrics registry modulo the timing family, which is wall-clock
 * noise by design. With faults enabled the bridge
 * weakens to self-consistency: any (shard count, thread count) pair
 * must reproduce itself exactly.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.hh"
#include "common/random.hh"
#include "core/bidding.hh"
#include "core/bidding_kernel.hh"
#include "core/market.hh"
#include "exec/parallelism.hh"
#include "net/options.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace.hh"

namespace amdahl::core {
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

/** Scoped span-tracing switch; restores the previous setting. */
class SpanGuard
{
  public:
    explicit SpanGuard(bool on) : previous_(obs::setSpanTracingEnabled(on))
    {}
    ~SpanGuard() { obs::setSpanTracingEnabled(previous_); }
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    bool previous_;
};

/** Nine price blocks, so an eight-shard split is genuinely uneven. */
FisherMarket
bridgeMarket(int users = 288, int servers = 12)
{
    Rng rng(0xb41d6e);
    std::vector<double> capacities(static_cast<std::size_t>(servers),
                                   24.0);
    FisherMarket market(std::move(capacities));
    for (int i = 0; i < users; ++i) {
        MarketUser user;
        user.name = "u" + std::to_string(i);
        user.budget = rng.uniform(0.5, 2.0);
        const int jobs = 1 + static_cast<int>(rng.uniformInt(1, 3));
        for (int k = 0; k < jobs; ++k) {
            JobSpec job;
            job.server = k == 0 ? static_cast<std::size_t>(i % servers)
                                : static_cast<std::size_t>(
                                      rng.uniformInt(0, servers - 1));
            job.parallelFraction = rng.uniform(0.3, 0.999);
            job.weight = rng.uniform(0.5, 2.0);
            user.jobs.push_back(job);
        }
        market.addUser(std::move(user));
    }
    return market;
}

/**
 * The kernel suite's ragged market (tests/core/test_bidding_simd.cc,
 * testMarket(192, 16)): rows of 1-4 jobs, so its update chunks mix
 * full vectors with scalar tails.
 */
FisherMarket
raggedMarket(int users = 192, int servers = 16)
{
    Rng rng(0x51b7d);
    std::vector<double> capacities(static_cast<std::size_t>(servers),
                                   16.0);
    FisherMarket market(std::move(capacities));
    for (int i = 0; i < users; ++i) {
        MarketUser user;
        user.name = "u" + std::to_string(i);
        user.budget = rng.uniform(0.5, 2.0);
        const int jobs = 1 + static_cast<int>(rng.uniformInt(0, 3));
        for (int k = 0; k < jobs; ++k) {
            JobSpec job;
            job.server = static_cast<std::size_t>(
                rng.uniformInt(0, servers - 1));
            job.parallelFraction = rng.uniform(0.05, 0.999);
            job.weight = rng.uniform(0.5, 2.0);
            user.jobs.push_back(job);
        }
        market.addUser(std::move(user));
    }
    return market;
}

/** Exact (bitwise) agreement of two bidding results. */
void
expectIdentical(const BiddingResult &a, const BiddingResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.iterations, b.iterations) << what;
    EXPECT_EQ(a.converged, b.converged) << what;
    EXPECT_EQ(a.deadlineExpired, b.deadlineExpired) << what;
    ASSERT_EQ(a.prices.size(), b.prices.size()) << what;
    for (std::size_t j = 0; j < a.prices.size(); ++j)
        ASSERT_EQ(a.prices[j], b.prices[j]) << what << ": price " << j;
    ASSERT_EQ(a.bids.size(), b.bids.size()) << what;
    for (std::size_t i = 0; i < a.bids.size(); ++i) {
        for (std::size_t k = 0; k < a.bids[i].size(); ++k) {
            ASSERT_EQ(a.bids[i][k], b.bids[i][k])
                << what << ": bid (" << i << "," << k << ")";
            ASSERT_EQ(a.allocation[i][k], b.allocation[i][k])
                << what << ": allocation (" << i << "," << k << ")";
        }
    }
}

/**
 * Metrics registry rendered as text, with the one family that is
 * legitimately schedule-dependent removed: time.* (wall-clock
 * histograms). Everything else — exec.tasks included, and the absence
 * of any net.* name in a sound run — must match exactly.
 */
std::string
comparableMetrics()
{
    std::ostringstream os;
    const Status st = obs::metrics().writeText(os);
    EXPECT_TRUE(st.isOk()) << st.toString();
    std::istringstream in(os.str());
    std::string line;
    std::string kept;
    while (std::getline(in, line)) {
        if (line.find("time.") != std::string::npos)
            continue;
        kept += line;
        kept += '\n';
    }
    return kept;
}

struct Observed
{
    BiddingResult result;
    std::string trace;
    std::string metrics;
};

/** One fully-instrumented solve at a given (shards, threads). */
Observed
observe(const FisherMarket &market, const BiddingOptions &opts,
        const net::ShardedOptions *sharded, int threads)
{
    ThreadGuard guard(threads);
    obs::metrics().reset();
    std::ostringstream traceStream;
    obs::TraceSink sink(traceStream);
    Observed out;
    {
        obs::TraceGuard traceGuard(sink);
        out.result = sharded
                         ? solveShardedBidding(market, opts, *sharded)
                         : solveAmdahlBidding(market, opts);
    }
    out.trace = traceStream.str();
    out.metrics = comparableMetrics();
    return out;
}

/** CRC-32 of a solve's trace bytes and of its result state. */
struct Pin
{
    std::uint32_t trace = 0;
    std::uint32_t state = 0;
};

Pin
pinOf(const Observed &run)
{
    const BiddingResult &r = run.result;
    Crc32 state;
    state.updateU64(static_cast<std::uint64_t>(r.iterations));
    state.updateU32(r.converged ? 1 : 0);
    state.updateU32(r.deadlineExpired ? 1 : 0);
    for (double p : r.prices)
        state.updateF64(p);
    for (std::size_t i = 0; i < r.bids.size(); ++i) {
        state.updateU64(r.bids[i].size());
        for (std::size_t k = 0; k < r.bids[i].size(); ++k) {
            state.updateF64(r.bids[i][k]);
            state.updateF64(r.allocation[i][k]);
        }
    }
    const NetOutcomeStats &net = r.net;
    for (std::uint64_t v :
         {net.degradedRounds, net.staleBidRounds, net.retransmits,
          net.healedReentries, net.minQuorum, net.latencyTicks,
          net.delayTicks, net.retransmitTicks, net.partitionWaitTicks,
          net.quorumWaitTicks})
        state.updateU64(v);
    state.updateU32(net.partitionDegraded ? 1 : 0);
    state.updateU32(net.quorumCollapsed ? 1 : 0);
    return {crc32(run.trace), state.value()};
}

/** Compare a run against digests recorded from an earlier build. */
void
expectPinned(const Observed &run, Pin expected, const std::string &what)
{
    const Pin got = pinOf(run);
    EXPECT_EQ(got.trace, expected.trace)
        << what << ": trace crc 0x" << std::hex << got.trace;
    EXPECT_EQ(got.state, expected.state)
        << what << ": state crc 0x" << std::hex << got.state;
}

TEST(ShardedBridge, SoundNetworkReproducesInProcessByteForByte)
{
    // The sharded exchange always runs the scalar update, while the
    // in-process one lets the CPU pick its kernel: on AVX2 hosts each
    // input is also a whole-solve check that the SIMD kernel
    // reproduces the scalar one.
    struct Input
    {
        const char *name;
        FisherMarket market;
        double damping;
    };
    const Input inputs[] = {{"bridge", bridgeMarket(), 1.0},
                            {"ragged", raggedMarket(), 1.0},
                            {"ragged damped", raggedMarket(), 0.7}};
    for (const Input &input : inputs) {
        const auto &market = input.market;
        BiddingOptions opts;
        opts.damping = input.damping;
        const Observed reference = observe(market, opts, nullptr, 1);
        ASSERT_TRUE(reference.result.converged) << input.name;
        EXPECT_NE(reference.trace.find("bidding_iter"),
                  std::string::npos);

        for (std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
            net::ShardedOptions sharded;
            sharded.shards = shards;
            for (int threads : {1, 8}) {
                const std::string what =
                    std::string(input.name) +
                    " shards=" + std::to_string(shards) +
                    " threads=" + std::to_string(threads);
                const Observed run =
                    observe(market, opts, &sharded, threads);
                expectIdentical(run.result, reference.result, what);
                EXPECT_EQ(run.trace, reference.trace) << what;
                EXPECT_EQ(run.metrics, reference.metrics) << what;
                // Sound-mode invisibility: the simulated network
                // leaves no metrics footprint at all.
                EXPECT_EQ(run.metrics.find("net."), std::string::npos)
                    << what;
            }
        }
    }
}

TEST(ShardedBridge, SoundBridgeHoldsUnderDampingAndWarmStart)
{
    const auto market = bridgeMarket(96, 8);
    BiddingOptions opts;
    opts.damping = 0.7;
    const auto seeded = solveAmdahlBidding(market, opts);
    opts.initialBids = seeded.bids;

    const Observed reference = observe(market, opts, nullptr, 1);
    for (std::size_t shards : {std::size_t{2}, std::size_t{3}}) {
        net::ShardedOptions sharded;
        sharded.shards = shards;
        const Observed run = observe(market, opts, &sharded, 8);
        expectIdentical(run.result, reference.result,
                        "damped shards=" + std::to_string(shards));
        EXPECT_EQ(run.trace, reference.trace);
    }
}

TEST(ShardedBridge, SoundBridgeHoldsUnderAnytimeBudget)
{
    // Cut the solve off mid-stream: the anytime snapshot logic in the
    // sharded loop must restore the same best state the in-process
    // solver restores.
    const auto market = bridgeMarket(96, 8);
    BiddingOptions opts;
    opts.deadline.iterationBudget = 5;
    const Observed reference = observe(market, opts, nullptr, 1);
    EXPECT_TRUE(reference.result.deadlineExpired);

    net::ShardedOptions sharded;
    sharded.shards = 2;
    const Observed run = observe(market, opts, &sharded, 8);
    expectIdentical(run.result, reference.result, "anytime bridge");
    EXPECT_EQ(run.trace, reference.trace);
}

TEST(ShardedBridge, FaultedRunsReproduceThemselvesAcrossThreads)
{
    const auto market = bridgeMarket();
    BiddingOptions opts;
    net::ShardedOptions sharded;
    sharded.shards = 4;
    sharded.faults.lossRate = 0.15;
    sharded.faults.delayMin = 1;
    sharded.faults.delayMax = 6;
    sharded.faults.duplicationRate = 0.1;
    sharded.faults.seed = 42;

    const Observed reference = observe(market, opts, &sharded, 1);
    EXPECT_TRUE(reference.result.converged);
    for (int threads : {2, 8}) {
        const Observed run = observe(market, opts, &sharded, threads);
        expectIdentical(run.result, reference.result,
                        "faulted threads=" + std::to_string(threads));
        EXPECT_EQ(run.trace, reference.trace);
        EXPECT_EQ(run.metrics, reference.metrics);
    }
    // A faulted run does leave a net.* footprint.
    EXPECT_NE(reference.metrics.find("net.msgs_sent"),
              std::string::npos);
}

TEST(ShardedBridge, ShardCountIsAResultsKnobOnlyUnderFaults)
{
    // Under faults the shard count legitimately changes the network
    // (different edges, different substreams) — the bridge does NOT
    // promise cross-shard-count identity there, only determinism per
    // count. Sanity-check both halves on one market.
    const auto market = bridgeMarket(96, 8);
    BiddingOptions opts;
    net::ShardedOptions a;
    a.shards = 2;
    a.faults.lossRate = 0.3;
    a.faults.seed = 7;
    net::ShardedOptions b = a;
    b.shards = 3;

    const auto ra1 = solveShardedBidding(market, opts, a);
    const auto ra2 = solveShardedBidding(market, opts, a);
    expectIdentical(ra1, ra2, "shards=2 run-vs-run");
    const auto rb = solveShardedBidding(market, opts, b);
    EXPECT_NE(ra1.iterations == rb.iterations &&
                  ra1.net.retransmits == rb.net.retransmits &&
                  ra1.net.degradedRounds == rb.net.degradedRounds,
              true)
        << "different shard counts under loss should see different "
           "networks";
}

TEST(ShardedBridge, KernelCacheReachesShardedClearing)
{
    // Two consecutive sound solves through one kernel cache, the
    // second after a value-only change: sharded clearing reuses and
    // patches the cached kernel exactly as in-process clearing does,
    // byte for byte, counters included.
    const auto first = bridgeMarket(96, 8);
    FisherMarket second(first.capacities());
    for (std::size_t i = 0; i < first.userCount(); ++i) {
        MarketUser user = first.user(i);
        if (i % 7 == 0) {
            user.budget *= 1.5;
            user.jobs.front().parallelFraction *= 0.9;
        }
        second.addUser(std::move(user));
    }
    net::ShardedOptions sharded;
    sharded.shards = 2;

    KernelCache inProcess;
    KernelCache overShards;
    BiddingOptions opts;
    const FisherMarket *markets[] = {&first, &second};
    for (const FisherMarket *market : markets) {
        opts.kernelCache = &inProcess;
        const Observed reference = observe(*market, opts, nullptr, 1);
        opts.kernelCache = &overShards;
        const Observed run = observe(*market, opts, &sharded, 4);
        expectIdentical(run.result, reference.result, "cached");
        EXPECT_EQ(run.trace, reference.trace);
        EXPECT_EQ(run.metrics, reference.metrics);
    }
    EXPECT_EQ(overShards.rebuilds, 1u);
    EXPECT_EQ(overShards.reuses, 1u);
    EXPECT_EQ(overShards.patchedUsers, inProcess.patchedUsers);
    EXPECT_GT(overShards.patchedUsers, 0u);
    EXPECT_EQ(obs::metrics().counter("bidding.kernel_reuses").value(),
              1u);
}

TEST(ShardedBridge, FaultedBudgetedRunMatchesPinnedBytes)
{
    // Every fault the protocol models at once — loss, duplication,
    // delay and a scheduled partition — plus per-user bid loss, under
    // an anytime budget, with spans on. The digests were recorded from
    // an earlier build, so they pin the protocol's bytes across
    // refactors, not just against the same build at another thread
    // count. The trace digest was re-recorded when duplicated
    // transfers became labelled by arrival order rather than send
    // order; the state digest did not move.
    SpanGuard spansOn(true);
    const auto market = bridgeMarket();
    BiddingOptions opts;
    opts.deadline.iterationBudget = 40;
    opts.transport.lossRate = 0.05;
    opts.transport.seed = 3;
    net::ShardedOptions sharded;
    sharded.shards = 4;
    sharded.faults.lossRate = 0.1;
    sharded.faults.duplicationRate = 0.1;
    sharded.faults.delayMin = 1;
    sharded.faults.delayMax = 6;
    sharded.faults.seed = 91;
    sharded.partitions = {{2, 3, 9}};
    for (int threads : {1, 4}) {
        const Observed run = observe(market, opts, &sharded, threads);
        EXPECT_GT(run.result.net.degradedRounds, 0u);
        EXPECT_TRUE(run.result.net.partitionDegraded);
        expectPinned(run, {0xd78447dbu, 0xbf9d004au},
                     "faulted threads=" + std::to_string(threads));
    }
}

TEST(ShardedBridge, CollapsedQuorumMatchesPinnedBytes)
{
    // A full quorum floor and a shard silenced from round 3 on: the
    // solve clears a few fresh rounds, then aborts on the collapse.
    SpanGuard spansOn(true);
    const auto market = bridgeMarket(96, 8);
    BiddingOptions opts;
    net::ShardedOptions sharded;
    sharded.shards = 3;
    sharded.quorumFloor = 1.0;
    sharded.faults.delayMin = 1;
    sharded.faults.delayMax = 3;
    sharded.faults.seed = 5;
    sharded.partitions = {{1, 3, 1000}};
    const Observed run = observe(market, opts, &sharded, 2);
    EXPECT_TRUE(run.result.net.quorumCollapsed);
    EXPECT_FALSE(run.result.converged);
    expectPinned(run, {0xf60ceb4cu, 0xc866d031u}, "collapsed");
}

} // namespace
} // namespace amdahl::core
