/**
 * @file
 * The journal's state digest and the frozen-prefix cursor it rests on.
 *
 * The encoding holds the frozen job prefix as its length and CRC, so
 * the digest, crc32(encodeOnlineState(state)), covers the whole job
 * log only while the cursor is exact: every job before it done, the
 * job at it still running, and the cached CRC that of the records
 * before it (the job segment). That is checked here after every epoch
 * of scenarios that move every part of the encoding: crashes with
 * checkpoint rollbacks and re-placement, a non-empty admission queue,
 * and sharded clearing over a lossy network. A decoded state keeps the
 * cursor and CRC the snapshot names, and must digest the same.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "alloc/fallback_policy.hh"
#include "common/crc32.hh"
#include "eval/online.hh"
#include "robustness/fault_injector.hh"

namespace amdahl::eval {
namespace {

OnlineOptions
plainScenario()
{
    OnlineOptions opts;
    opts.seed = 2501;
    opts.users = 10;
    opts.servers = 4;
    opts.epochSeconds = 60.0;
    opts.horizonSeconds = 2400.0; // 40 epochs
    opts.arrivalsPerServerEpoch = 1.0;
    return opts;
}

OnlineOptions
faultScenario()
{
    OnlineOptions opts = plainScenario();
    opts.faults.enabled = true;
    opts.faults.crashRatePerServerEpoch = 0.05;
    opts.faults.downEpochs = 2;
    opts.faults.checkpointEpochs = 3;
    opts.faults.bidLossRate = 0.1;
    opts.admission.enabled = true;
    opts.admission.maxLoadFactor = 1.5;
    opts.admission.maxQueueLength = 6;
    return opts;
}

OnlineOptions
shardedScenario()
{
    OnlineOptions opts = plainScenario();
    opts.users = 80; // three price blocks, so two shards stay two
    opts.arrivalsPerServerEpoch = 2.0;
    opts.horizonSeconds = 1200.0; // 20 epochs
    opts.net.shards = 2;
    opts.net.faults.lossRate = 0.05;
    opts.net.faults.seed = 11;
    return opts;
}

/** The job segment a snapshot of @p state names, as one string. */
std::string
segmentOf(const OnlineRunState &state)
{
    std::string bytes;
    onlineJobSegment(state).emit(
        0, [&](std::string_view piece) { bytes.append(piece); });
    return bytes;
}

/** What a drive of a scenario went through. */
struct Drive
{
    OnlineRunState state;
    int epochsWithQueue = 0;
    int epochsWithUnfrozenDone = 0;
};

/**
 * Run every epoch of @p opts, checking after each that the frozen-prefix
 * cursor is as far as it can go (every job before it done, the job at
 * it still running), that its cached CRC is that of the records before
 * it, and that the digest is the CRC of the encoding.
 */
void
driveCheckingDigest(const OnlineOptions &opts, Drive &d)
{
    CharacterizationCache cache;
    const OnlineSimulator sim(cache, opts);
    const alloc::FallbackPolicy policy;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());
    d.state = sim.initState(policy);
    while (d.state.epoch < sim.epochCount()) {
        sim.runEpoch(d.state, policy, FractionSource::Estimated,
                     injector);
        OnlineRunState &s = d.state;
        const std::size_t cursor = s.frozenJobs;
        ASSERT_LE(cursor, s.jobs.size());
        for (std::size_t k = 0; k < cursor; ++k)
            ASSERT_TRUE(s.jobs[k].done()) << "job " << k;
        if (cursor < s.jobs.size()) {
            ASSERT_FALSE(s.jobs[cursor].done());
        }
        for (std::size_t k = cursor; k < s.jobs.size(); ++k) {
            if (s.jobs[k].done()) {
                ++d.epochsWithUnfrozenDone;
                break;
            }
        }
        d.epochsWithQueue += s.waitQueue.empty() ? 0 : 1;

        const std::string segment = segmentOf(s);
        ASSERT_EQ(segment.size(), 72 * cursor);
        ASSERT_EQ(s.frozenJobsCrc, crc32(segment)) << "epoch " << s.epoch;
        ASSERT_EQ(onlineStateDigest(s, opts),
                  crc32(encodeOnlineState(s, opts)))
            << "epoch " << s.epoch;
    }
}

TEST(OnlineStateDigest, MatchesFullEncodeEveryEpoch)
{
    {
        SCOPED_TRACE("plain");
        Drive d;
        driveCheckingDigest(plainScenario(), d);
        if (HasFatalFailure())
            return;
        // The cursor moved, yet a suffix with done jobs stayed in
        // front of it: both the segment and the snapshot's own records
        // held done jobs.
        EXPECT_GT(d.state.frozenJobs, 0u);
        EXPECT_LT(d.state.frozenJobs, d.state.jobs.size());
        EXPECT_GT(d.epochsWithUnfrozenDone, 0);
    }
    {
        SCOPED_TRACE("faults and admission");
        Drive d;
        driveCheckingDigest(faultScenario(), d);
        if (HasFatalFailure())
            return;
        EXPECT_GT(d.state.metrics.crashEvents, 0);
        EXPECT_GT(d.state.metrics.workLostSeconds, 0.0);
        EXPECT_GT(d.state.metrics.replacements, 0);
        EXPECT_GT(d.epochsWithQueue, 0);
        EXPECT_GT(d.state.frozenJobs, 0u);
    }
    {
        SCOPED_TRACE("sharded network clearing");
        Drive d;
        driveCheckingDigest(shardedScenario(), d);
        if (HasFatalFailure())
            return;
        EXPECT_GT(d.state.net.globalRound, 0u);
        EXPECT_EQ(d.state.net.edgeSeq.size(), 4u);
        EXPECT_GT(d.state.frozenJobs, 0u);
    }
}

TEST(OnlineStateDigest, CursorSurvivesDecode)
{
    const OnlineOptions opts = faultScenario();
    CharacterizationCache cache;
    const OnlineSimulator sim(cache, opts);
    const alloc::FallbackPolicy policy;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());

    OnlineRunState live = sim.initState(policy);
    for (int e = 0; e < 15; ++e)
        sim.runEpoch(live, policy, FractionSource::Estimated, injector);
    ASSERT_GT(live.frozenJobs, 0u);

    // decode(encode(s)) restores the cursor and its CRC, so the first
    // epoch after a recovery scans only the live suffix.
    const std::string encoded = encodeOnlineState(live, opts);
    auto decoded =
        decodeOnlineState(encoded, segmentOf(live), opts, policy.name());
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    OnlineRunState restored = decoded.take();
    EXPECT_EQ(restored.frozenJobs, live.frozenJobs);
    EXPECT_EQ(restored.frozenJobsCrc, live.frozenJobsCrc);
    EXPECT_EQ(encodeOnlineState(restored, opts), encoded);
    EXPECT_EQ(onlineStateDigest(restored, opts),
              onlineStateDigest(live, opts));

    while (live.epoch < sim.epochCount()) {
        for (OnlineRunState *s : {&live, &restored})
            sim.runEpoch(*s, policy, FractionSource::Estimated, injector);
        ASSERT_EQ(restored.frozenJobs, live.frozenJobs)
            << "epoch " << live.epoch;
        ASSERT_EQ(restored.frozenJobsCrc, live.frozenJobsCrc)
            << "epoch " << live.epoch;
        ASSERT_EQ(onlineStateDigest(restored, opts),
                  onlineStateDigest(live, opts))
            << "epoch " << live.epoch;
    }
}

} // namespace
} // namespace amdahl::eval
