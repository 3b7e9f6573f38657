/**
 * @file
 * The streamed snapshot payload against the string encoding.
 *
 * A snapshot epoch hands the state to the writer in pieces (the fields
 * before the job log, the job records a chunk at a time, the fields
 * after it) inside the envelope, and declares the payload's CRC from
 * the epoch's state digest instead of reading the bytes again. The
 * contract is that nothing on disk changes: at every epoch of a
 * scenario with crashes, admission and delta clearing, and for the
 * final envelope, the concatenated pieces, the declared size and the
 * declared CRC are those of encodeSnapshotEnvelope over
 * encodeOnlineState. A second test pins the point of streaming: on a
 * state of tens of thousands of jobs, no piece of the snapshot or of
 * the job segment exceeds one chunk of records, and the snapshot holds
 * only the records past the frozen prefix.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/fallback_policy.hh"
#include "common/crc32.hh"
#include "eval/online.hh"
#include "robustness/durability/durable_store.hh"
#include "robustness/fault_injector.hh"

namespace amdahl::eval {
namespace {

OnlineOptions
churnScenario()
{
    OnlineOptions opts;
    opts.seed = 2901;
    opts.users = 10;
    opts.servers = 4;
    opts.epochSeconds = 60.0;
    opts.horizonSeconds = 1800.0; // 30 epochs
    opts.arrivalsPerServerEpoch = 1.5;
    opts.faults.enabled = true;
    opts.faults.crashRatePerServerEpoch = 0.05;
    opts.faults.downEpochs = 2;
    opts.faults.checkpointEpochs = 3;
    opts.admission.enabled = true;
    opts.admission.maxLoadFactor = 1.5;
    opts.admission.maxQueueLength = 6;
    opts.delta.reuseKernel = true;
    opts.delta.warmStartBids = true;
    return opts;
}

/** Expect @p streamed to be @p env with @p state as its state bytes. */
void
expectStreamIsEncoding(const durability::SnapshotPayload &streamed,
                       durability::OnlineSnapshotEnvelope env,
                       std::string state)
{
    env.state = std::move(state);
    const std::string want = durability::encodeSnapshotEnvelope(env);
    EXPECT_EQ(streamed.collect(), want);
    EXPECT_EQ(streamed.size, want.size());
    EXPECT_EQ(streamed.crc, crc32(want));
}

TEST(OnlineStateStream, MatchesTheStringEncodingEveryEpoch)
{
    const OnlineOptions opts = churnScenario();
    CharacterizationCache cache;
    const OnlineSimulator sim(cache, opts);
    const alloc::FallbackPolicy policy;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());
    OnlineRunState s = sim.initState(policy);
    int epochsWithQueue = 0;
    while (s.epoch < sim.epochCount()) {
        sim.runEpoch(s, policy, FractionSource::Estimated, injector);
        epochsWithQueue += s.waitQueue.empty() ? 0 : 1;
        durability::OnlineSnapshotEnvelope env;
        env.traceBytes = 1000 + static_cast<std::uint64_t>(s.epoch);
        env.traceSeq = static_cast<std::uint64_t>(s.epoch);
        const durability::SnapshotPayload streamed =
            durability::streamSnapshotEnvelope(
                env, onlineStatePayload(s, opts,
                                        onlineStateDigest(s, opts)));
        SCOPED_TRACE("epoch " + std::to_string(s.epoch));
        expectStreamIsEncoding(streamed, env, encodeOnlineState(s, opts));
        if (HasFailure())
            return;
    }
    // The scenario moved the parts of the state the stream carries.
    EXPECT_GT(s.metrics.crashEvents, 0);
    EXPECT_GT(epochsWithQueue, 0);
    EXPECT_GT(s.frozenJobs, 0u);

    const OnlineMetrics metrics = sim.finalize(s);
    EXPECT_GT(metrics.jobsCompleted, 0);
    durability::OnlineSnapshotEnvelope final_env;
    final_env.completed = true;
    final_env.traceBytes = 123456;
    final_env.traceSeq = 789;
    SCOPED_TRACE("final envelope");
    expectStreamIsEncoding(
        durability::streamSnapshotEnvelope(
            final_env,
            onlineStatePayload(s, opts, onlineStateDigest(s, opts))),
        final_env, encodeOnlineState(s, opts));
}

TEST(OnlineStateStream, NoPieceIsStateSized)
{
    OnlineOptions opts = churnScenario();
    opts.faults.enabled = false;
    CharacterizationCache cache;
    const OnlineSimulator sim(cache, opts);
    const alloc::FallbackPolicy policy;
    OnlineRunState s = sim.initState(policy);
    // A job log of 50k records plus a partial chunk, the first 8292
    // of them done and frozen: the stream never looks at what the
    // records mean, only at how many there are and where the cursor
    // stands.
    const std::size_t jobs = 12 * kStateChunkJobs + 1234;
    const std::size_t frozen = 2 * kStateChunkJobs + 100;
    const std::size_t unfrozen = jobs - frozen;
    s.jobs.resize(jobs);
    for (std::size_t k = 0; k < jobs; ++k) {
        s.jobs[k].user = k % 10;
        s.jobs[k].server = k % 4;
        s.jobs[k].totalWork = static_cast<double>(k);
        if (k < frozen)
            s.jobs[k].completionSeconds = 1.0;
    }
    s.frozenJobs = frozen;

    const durability::SnapshotPayload payload =
        onlineStatePayload(s, opts, 0);
    const std::size_t chunkBytes = 72 * kStateChunkJobs;
    std::vector<std::size_t> pieces;
    std::string joined;
    payload.emit([&](std::string_view piece) {
        pieces.push_back(piece.size());
        joined.append(piece);
    });
    // Head, one piece per chunk of unfrozen records, tail.
    ASSERT_EQ(pieces.size(), 2 + 11u);
    std::size_t jobBytes = 0;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
        EXPECT_LE(pieces[i], chunkBytes) << "piece " << i;
        if (i > 0 && i + 1 < pieces.size())
            jobBytes += pieces[i];
    }
    EXPECT_EQ(jobBytes, 72 * unfrozen);
    EXPECT_EQ(payload.size, joined.size());
    EXPECT_EQ(joined, encodeOnlineState(s, opts));

    // The frozen records go to the segment in chunks too, from
    // wherever its durable end is.
    const durability::SegmentRecords segment = onlineJobSegment(s);
    EXPECT_EQ(segment.size, 72 * frozen);
    for (const std::size_t from : {std::size_t{0}, kStateChunkJobs + 7}) {
        SCOPED_TRACE(from);
        std::size_t segmentBytes = 0;
        std::size_t segmentPieces = 0;
        segment.emit(72 * from, [&](std::string_view piece) {
            EXPECT_LE(piece.size(), chunkBytes);
            segmentBytes += piece.size();
            ++segmentPieces;
        });
        EXPECT_EQ(segmentBytes, 72 * (frozen - from));
        EXPECT_EQ(segmentPieces,
                  (frozen - from + kStateChunkJobs - 1) / kStateChunkJobs);
    }
}

} // namespace
} // namespace amdahl::eval
