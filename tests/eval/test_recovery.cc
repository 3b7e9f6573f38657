/**
 * @file
 * Crash-recovery equivalence for the durable online runtime.
 *
 * The contract under test is the strongest one the durability layer
 * makes: a run killed after any committed epoch and restarted from its
 * state directory produces the *same* simulation — identical job log,
 * identical metrics (modulo the recovery counters, which describe the
 * process rather than the simulation), and a byte-identical final
 * snapshot — as a run that was never interrupted. Determinism is the
 * redo log, and the journaled per-epoch digest is its proof
 * obligation: these tests also check that a tampered digest refuses to
 * replay instead of silently rewriting history.
 *
 * Process-level kill coverage (SIGKILL at the literal kill points,
 * trace-file equivalence) lives in tools/chaos_recovery.py; these
 * tests drive the same commit layout in-process so they can assert on
 * states and Status values directly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "alloc/amdahl_bidding_policy.hh"
#include "alloc/fallback_policy.hh"
#include "common/bytes.hh"
#include "common/crc32.hh"
#include "eval/online.hh"
#include "robustness/durability/durable_store.hh"
#include "robustness/fault_injector.hh"

namespace amdahl::eval {
namespace {

namespace fs = std::filesystem;

/** A per-test scratch directory, wiped at the start of each test. */
fs::path
freshDir()
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    fs::path dir = fs::temp_directory_path() / "amdahl_recovery_test" /
                   (std::string(info->test_suite_name()) + "." +
                    info->name());
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

OnlineOptions
smallScenario()
{
    OnlineOptions opts;
    opts.seed = 7707;
    opts.users = 6;
    opts.servers = 3;
    opts.epochSeconds = 60.0;
    opts.horizonSeconds = 600.0; // 10 epochs
    opts.arrivalsPerServerEpoch = 0.5;
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

/** decode(encode(@p state)) over the segment the encoding names. */
Result<OnlineRunState>
roundTrip(const OnlineRunState &state, const OnlineOptions &opts,
          std::string_view policyName)
{
    return decodeOnlineState(encodeOnlineState(state, opts),
                             segmentOf(state), opts, policyName);
}

/** The bytes of @p path, or empty when it cannot be read. */
std::string
fileBytes(const fs::path &path)
{
    auto bytes = durability::readFileBytes(path.string());
    EXPECT_TRUE(bytes.ok()) << bytes.status().toString();
    return bytes.ok() ? bytes.take() : std::string();
}

durability::DurableStateStore
openStore(const fs::path &dir, int snapshotEvery)
{
    durability::DurabilityOptions opts;
    opts.stateDir = dir.string();
    opts.snapshotEvery = snapshotEvery;
    auto opened = durability::DurableStateStore::open(opts);
    EXPECT_TRUE(opened.ok()) << opened.status().toString();
    return opened.take();
}

/**
 * Drive the first @p epochs epochs through the store with exactly the
 * commit layout runDurable uses (digest entry + envelope-wrapped
 * state), then drop everything — the in-process stand-in for a
 * process killed after its Nth commit.
 */
void
runAndAbandonAfter(const OnlineSimulator &sim,
                   const alloc::AllocationPolicy &policy,
                   durability::DurableStateStore &store, int epochs,
                   std::uint32_t digestXor = 0)
{
    ASSERT_TRUE(store.beginFresh().isOk());
    const robustness::FaultInjector injector(
        sim.options().faults,
        static_cast<std::size_t>(sim.options().servers),
        sim.epochCount());
    OnlineRunState state = sim.initState(policy);
    for (int e = 0; e < epochs; ++e) {
        sim.runEpoch(state, policy, FractionSource::Estimated,
                     injector);
        const std::string encoded =
            encodeOnlineState(state, sim.options());
        durability::JournalEntry entry;
        entry.epoch = static_cast<std::uint64_t>(state.epoch);
        entry.eventCrc = crc32(encoded) ^ digestXor;
        durability::OnlineSnapshotEnvelope env;
        ASSERT_TRUE(store
                        .commitEpoch(
                            entry,
                            [&] {
                                env.state = encoded;
                                return encodeSnapshotEnvelope(env);
                            },
                            onlineJobSegment(state))
                        .isOk());
    }
}

/** The two metrics objects describe the same simulation. */
void
expectSameSimulation(const OnlineMetrics &a, const OnlineMetrics &b)
{
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.jobsArrived, b.jobsArrived);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_DOUBLE_EQ(a.workCompleted, b.workCompleted);
    EXPECT_DOUBLE_EQ(a.meanCompletionSeconds, b.meanCompletionSeconds);
    EXPECT_DOUBLE_EQ(a.p95CompletionSeconds, b.p95CompletionSeconds);
    EXPECT_DOUBLE_EQ(a.meanJobsInSystem, b.meanJobsInSystem);
    EXPECT_DOUBLE_EQ(a.longRunEntitlementMape,
                     b.longRunEntitlementMape);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t k = 0; k < a.jobs.size(); ++k) {
        EXPECT_EQ(a.jobs[k].user, b.jobs[k].user);
        EXPECT_EQ(a.jobs[k].server, b.jobs[k].server);
        EXPECT_DOUBLE_EQ(a.jobs[k].remainingWork,
                         b.jobs[k].remainingWork);
        EXPECT_DOUBLE_EQ(a.jobs[k].completionSeconds,
                         b.jobs[k].completionSeconds);
    }
    EXPECT_EQ(a.occupancyHistory, b.occupancyHistory);
    EXPECT_EQ(a.speedupHistory, b.speedupHistory);
}

TEST(Recovery, EncodedStateRoundTripsByteIdentically)
{
    CharacterizationCache cache;
    const OnlineOptions opts = smallScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());

    OnlineRunState state = sim.initState(ab);
    for (int e = 0; e < 4; ++e)
        sim.runEpoch(state, ab, FractionSource::Estimated, injector);

    const std::string encoded = encodeOnlineState(state, opts);
    auto decoded = roundTrip(state, opts, ab.name());
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(encodeOnlineState(decoded.value(), opts), encoded);
    EXPECT_EQ(decoded.value().epoch, 4);
}

TEST(Recovery, DecodeRejectsScenarioPolicyAndFormatSkew)
{
    CharacterizationCache cache;
    const OnlineOptions opts = smallScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const std::string encoded =
        encodeOnlineState(sim.initState(ab), opts);

    auto wrongPolicy = decodeOnlineState(encoded, "", opts, "PS");
    ASSERT_FALSE(wrongPolicy.ok());
    EXPECT_EQ(wrongPolicy.status().kind(), ErrorKind::SemanticError);

    OnlineOptions reseeded = opts;
    reseeded.seed ^= 1;
    auto wrongScenario =
        decodeOnlineState(encoded, "", reseeded, ab.name());
    ASSERT_FALSE(wrongScenario.ok());
    EXPECT_EQ(wrongScenario.status().kind(), ErrorKind::SemanticError);

    auto truncated = decodeOnlineState(
        std::string_view(encoded).substr(0, encoded.size() / 2), "", opts,
        ab.name());
    EXPECT_FALSE(truncated.ok());

    // A job record whose user, server or workload index is out of
    // range would index past runEpoch's tables: the decoder refuses
    // it even though the bytes are well formed. The edits go to the
    // first unfrozen job, whose record is in the snapshot itself.
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());
    OnlineRunState ran = sim.initState(ab);
    for (int e = 0; e < 3; ++e)
        sim.runEpoch(ran, ab, FractionSource::Estimated, injector);
    ASSERT_LT(ran.frozenJobs, ran.jobs.size());
    const std::size_t live = ran.frozenJobs;
    const auto tampered = [&](auto &&edit) {
        OnlineRunState bad = ran;
        edit(bad);
        return roundTrip(bad, opts, ab.name());
    };
    // The placer refuses a round-robin cursor past the cluster, so such
    // a state exists only as bytes: the cursor is the one word in which
    // the encodings of cursors 0 and 1 differ, and its low byte comes
    // first.
    const auto encodeWithCursor = [&](std::size_t cursor) {
        OnlineRunState st = ran;
        alloc::JobPlacerState placer = st.placer.state();
        placer.nextRoundRobin = cursor;
        st.placer = alloc::JobPlacer(opts.placement, placer);
        return encodeOnlineState(st, opts);
    };
    const auto cursorPastCluster = [&] {
        std::string bytes = encodeWithCursor(0);
        const std::string other = encodeWithCursor(1);
        const auto at =
            std::mismatch(bytes.begin(), bytes.end(), other.begin()).first;
        *at = static_cast<char>(opts.servers);
        return decodeOnlineState(bytes, segmentOf(ran), opts, ab.name());
    };
    // Every int field is a count: a negative one, or one past INT_MAX
    // (which an int cast would truncate), is refused, not re-encoded
    // to other bytes. Such a count exists only as bytes; its word is
    // where the encodings of shed counts 0 and 1 differ.
    const auto shedPastIntMax = [&] {
        OnlineRunState one = ran;
        one.metrics.jobsShed = 1;
        std::string bytes = encodeOnlineState(ran, opts);
        const std::string other = encodeOnlineState(one, opts);
        const auto at =
            std::mismatch(bytes.begin(), bytes.end(), other.begin()).first;
        *(at + 3) = static_cast<char>(0x80); // 2^31
        return decodeOnlineState(bytes, segmentOf(ran), opts, ab.name());
    };
    const std::size_t huge = 1000000;
    const Result<OnlineRunState> cases[] = {
        tampered([&](OnlineRunState &st) { st.metrics.jobsShed = -1; }),
        tampered([&](OnlineRunState &st) {
            st.jobs[live].epochsSinceCheckpoint = -1;
        }),
        shedPastIntMax(),
        tampered([&](OnlineRunState &st) { st.jobs[live].user = huge; }),
        tampered([&](OnlineRunState &st) { st.jobs[live].server = huge; }),
        tampered([&](OnlineRunState &st) {
            st.jobs[live].workloadIndex = huge;
        }),
        tampered([&](OnlineRunState &st) {
            st.waitQueue.push_back(st.jobs[live]);
            st.waitQueue.back().user = huge;
        }),
        cursorPastCluster(),
    };
    for (const auto &bad : cases) {
        EXPECT_FALSE(bad.ok());
        EXPECT_EQ(bad.status().kind(), ErrorKind::SemanticError);
    }
    // kUnplaced is the one legal server index past the cluster: a
    // total outage parks jobs there.
    auto parked = tampered([&](OnlineRunState &st) {
        st.jobs[live].server = OnlineJob::kUnplaced;
    });
    EXPECT_TRUE(parked.ok()) << parked.status().toString();
}

TEST(Recovery, ReplayOfTheSameEpochsIsBitIdentical)
{
    // Determinism is the redo log: two independent drives of the same
    // scenario must agree on every per-epoch digest.
    CharacterizationCache cache;
    const OnlineOptions opts = smallScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());

    OnlineRunState a = sim.initState(ab);
    OnlineRunState b = sim.initState(ab);
    for (int e = 0; e < sim.epochCount(); ++e) {
        sim.runEpoch(a, ab, FractionSource::Estimated, injector);
        sim.runEpoch(b, ab, FractionSource::Estimated, injector);
        EXPECT_EQ(crc32(encodeOnlineState(a, opts)),
                  crc32(encodeOnlineState(b, opts)))
            << "divergence at epoch " << e + 1;
    }
}

TEST(Recovery, DurableFreshRunMatchesThePlainRun)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const OnlineMetrics plain = sim.run(ab, FractionSource::Estimated);

    auto store = openStore(freshDir(), 4);
    auto durable =
        sim.runDurable(ab, FractionSource::Estimated, store);
    ASSERT_TRUE(durable.ok()) << durable.status().toString();
    expectSameSimulation(durable.value(), plain);
    EXPECT_FALSE(durable.value().recovered);
    EXPECT_EQ(durable.value().journalCommits,
              static_cast<std::uint64_t>(sim.epochCount()));
    EXPECT_GT(durable.value().snapshotsWritten, 0u);
}

TEST(Recovery, KillAfterAnyCommitRecoversTheUninterruptedOutcome)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const OnlineMetrics plain = sim.run(ab, FractionSource::Estimated);

    // An uninterrupted durable run pins the expected final snapshot.
    const fs::path goldenDir = freshDir() / "golden";
    auto goldenStore = openStore(goldenDir, 3);
    ASSERT_TRUE(
        sim.runDurable(ab, FractionSource::Estimated, goldenStore)
            .ok());
    auto goldenSnapshot = durability::readFileBytes(
        durability::SnapshotStore(goldenDir.string(), 2)
            .pathFor(static_cast<std::uint64_t>(sim.epochCount())));
    ASSERT_TRUE(goldenSnapshot.ok());
    const std::string goldenSegment = fileBytes(goldenDir / "jobs.amsg");
    ASSERT_GT(goldenSegment.size(), durability::AppendFile::kHeaderBytes);

    for (int killAfter = 1; killAfter < sim.epochCount(); ++killAfter) {
        SCOPED_TRACE("killed after epoch " + std::to_string(killAfter));
        const fs::path dir =
            goldenDir.parent_path() /
            ("kill" + std::to_string(killAfter));
        fs::create_directories(dir);
        {
            auto store = openStore(dir, 3);
            runAndAbandonAfter(sim, ab, store, killAfter);
        }

        auto store = openStore(dir, 3);
        const durability::RecoveredState rec = store.recover();
        ASSERT_EQ(rec.frontierEpoch(),
                  static_cast<std::uint64_t>(killAfter));
        auto resumed = sim.runDurable(ab, FractionSource::Estimated,
                                      store, &rec);
        ASSERT_TRUE(resumed.ok()) << resumed.status().toString();

        expectSameSimulation(resumed.value(), plain);
        EXPECT_TRUE(resumed.value().recovered);
        EXPECT_EQ(resumed.value().recoveryFrontierEpoch,
                  static_cast<std::uint64_t>(killAfter));
        EXPECT_EQ(resumed.value().recoveryReplayedEpochs,
                  static_cast<int>(rec.entries.size()));

        // The recovery-equivalence oracle, at its strongest: the final
        // snapshot bytes are identical to the uninterrupted run's.
        auto snapshot = durability::readFileBytes(
            durability::SnapshotStore(dir.string(), 2)
                .pathFor(static_cast<std::uint64_t>(sim.epochCount())));
        ASSERT_TRUE(snapshot.ok());
        EXPECT_EQ(snapshot.value(), goldenSnapshot.value());
        // The segment the snapshots name is the uninterrupted run's
        // too: a resume cuts what no surviving snapshot names, and the
        // redo appends the same records again.
        EXPECT_EQ(fileBytes(dir / "jobs.amsg"), goldenSegment);
    }
}

TEST(Recovery, TamperedJournalDigestRefusesToReplay)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const fs::path dir = freshDir();
    {
        auto store = openStore(dir, 0); // no snapshot: all journaled
        runAndAbandonAfter(sim, ab, store, 3,
                           /*digestXor=*/0x1u); // corrupt every digest
    }
    auto store = openStore(dir, 0);
    const durability::RecoveredState rec = store.recover();
    ASSERT_FALSE(rec.entries.empty());
    auto resumed =
        sim.runDurable(ab, FractionSource::Estimated, store, &rec);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().kind(), ErrorKind::SemanticError);
    EXPECT_NE(resumed.status().message().find("replay divergence"),
              std::string::npos);
}

TEST(Recovery, CompletedRunResumesWithZeroReplay)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const fs::path dir = freshDir();
    auto store = openStore(dir, 4);
    auto first = sim.runDurable(ab, FractionSource::Estimated, store);
    ASSERT_TRUE(first.ok()) << first.status().toString();

    auto reopened = openStore(dir, 4);
    const durability::RecoveredState rec = reopened.recover();
    EXPECT_EQ(rec.frontierEpoch(),
              static_cast<std::uint64_t>(sim.epochCount()));
    auto again = sim.runDurable(ab, FractionSource::Estimated,
                                reopened, &rec);
    ASSERT_TRUE(again.ok()) << again.status().toString();
    expectSameSimulation(again.value(), first.value());
    EXPECT_TRUE(again.value().recovered);
    EXPECT_EQ(again.value().recoveryReplayedEpochs, 0);
}

TEST(Recovery, ZeroedPlacerLoadsAreRederivedOnDecode)
{
    // The placer's loads are not stored: decode counts them from the
    // job log. A state whose loads were zeroed therefore resumes on the
    // uninterrupted run's trajectory, instead of panicking once a job
    // finishes on a server that counts no jobs.
    CharacterizationCache cache;
    const OnlineOptions opts = smallScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());

    OnlineRunState uninterrupted = sim.initState(ab);
    std::vector<std::uint32_t> digests;
    while (uninterrupted.epoch < sim.epochCount()) {
        sim.runEpoch(uninterrupted, ab, FractionSource::Estimated,
                     injector);
        digests.push_back(crc32(encodeOnlineState(uninterrupted, opts)));
    }

    OnlineRunState zeroed = sim.initState(ab);
    for (int e = 0; e < 2; ++e)
        sim.runEpoch(zeroed, ab, FractionSource::Estimated, injector);
    alloc::JobPlacerState placer = zeroed.placer.state();
    ASSERT_GT(std::accumulate(placer.loads.begin(), placer.loads.end(), 0),
              0);
    std::fill(placer.loads.begin(), placer.loads.end(), 0);
    zeroed.placer = alloc::JobPlacer(opts.placement, placer);

    auto decoded = roundTrip(zeroed, opts, ab.name());
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    OnlineRunState resumed = decoded.take();
    EXPECT_EQ(crc32(encodeOnlineState(resumed, opts)), digests[1]);
    while (resumed.epoch < sim.epochCount()) {
        sim.runEpoch(resumed, ab, FractionSource::Estimated, injector);
        EXPECT_EQ(crc32(encodeOnlineState(resumed, opts)),
                  digests[static_cast<std::size_t>(resumed.epoch - 1)])
            << "divergence at epoch " << resumed.epoch;
    }
}

/** Crashes with checkpoint rollbacks, a total outage that parks jobs,
 *  and admission control that queues and sheds. */
OnlineOptions
faultedAdmissionScenario()
{
    OnlineOptions opts = smallScenario();
    opts.horizonSeconds = 1200.0; // 20 epochs
    opts.arrivalsPerServerEpoch = 2.0;
    opts.workScaleMin = 2.0;
    opts.workScaleMax = 4.0;
    opts.faults.enabled = true;
    opts.faults.checkpointEpochs = 3;
    opts.faults.scriptedCrashes = {
        {0, 3, 6}, {0, 8, 12}, {1, 8, 12}, {2, 8, 12}};
    opts.admission.enabled = true;
    opts.admission.maxLoadFactor = 2.0;
    opts.admission.maxQueueLength = 4;
    return opts;
}

TEST(Recovery, EveryBitFlipIsRefusedOrReencodesToTheFlippedBytes)
{
    // Mutation fuzzing of the decoder: decoding the encoding of a state
    // with one bit flipped gives a classified error, or a state whose
    // encoding is exactly the flipped bytes. A decoder that accepts a
    // value it cannot write back (a truncated count, say) fails the
    // second half.
    CharacterizationCache cache;
    OnlineOptions opts = smallScenario();
    opts.arrivalsPerServerEpoch = 2.0;
    opts.admission.enabled = true;
    opts.admission.maxLoadFactor = 1.0;
    opts.admission.maxQueueLength = 4;
    opts.net.shards = 2;
    OnlineSimulator sim(cache, opts);
    const alloc::FallbackPolicy policy; // the sharded-clearing policy
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());
    OnlineRunState state = sim.initState(policy);
    // Flips then land in frozen-prefix fields, job records, the wait
    // queue and the network session alike.
    while (state.waitQueue.empty() || state.frozenJobs == 0 ||
           state.frozenJobs == state.jobs.size()) {
        ASSERT_LT(state.epoch, sim.epochCount());
        sim.runEpoch(state, policy, FractionSource::Estimated, injector);
    }
    ASSERT_FALSE(state.net.edgeSeq.empty());
    const std::string encoded = encodeOnlineState(state, opts);
    const std::string segment = segmentOf(state);
    ASSERT_TRUE(decodeOnlineState(encoded, segment, opts, policy.name()).ok());

    std::size_t accepted = 0;
    for (std::size_t bit = 0; bit < 8 * encoded.size(); ++bit) {
        std::string flipped = encoded;
        flipped[bit / 8] =
            static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
        auto decoded =
            decodeOnlineState(flipped, segment, opts, policy.name());
        if (!decoded.ok()) {
            const ErrorKind kind = decoded.status().kind();
            ASSERT_TRUE(kind == ErrorKind::ParseError ||
                        kind == ErrorKind::SemanticError)
                << "bit " << bit << ": " << decoded.status().toString();
            continue;
        }
        ++accepted;
        ASSERT_TRUE(encodeOnlineState(decoded.value(), opts) == flipped)
            << "bit " << bit << " decodes to a state with other bytes";
    }
    // Doubles and in-range indices take any value, so some flips do
    // decode.
    EXPECT_GT(accepted, 0u);
}

TEST(Recovery, DecodeDerivesLoadsCountsAndBudgetsUnderFaults)
{
    // After every epoch, decode(encode(s)) rebuilds what the encoding
    // leaves out exactly as the live run holds it.
    CharacterizationCache cache;
    const OnlineOptions opts = faultedAdmissionScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());

    bool parked = false;
    bool queued = false;
    OnlineRunState state = sim.initState(ab);
    while (state.epoch < sim.epochCount()) {
        sim.runEpoch(state, ab, FractionSource::Estimated, injector);
        SCOPED_TRACE("epoch " + std::to_string(state.epoch));
        parked = parked || std::any_of(state.jobs.begin(),
                                       state.jobs.end(),
                                       [](const OnlineJob &job) {
                                           return job.unplaced();
                                       });
        queued = queued || !state.waitQueue.empty();

        auto decoded = roundTrip(state, opts, ab.name());
        ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
        const OnlineRunState &back = decoded.value();
        EXPECT_EQ(back.placer.state().loads, state.placer.state().loads);
        EXPECT_EQ(back.metrics.jobsCompleted, state.metrics.jobsCompleted);
        EXPECT_EQ(back.metrics.jobsArrived, state.metrics.jobsArrived);
        EXPECT_EQ(back.budgets, state.budgets);
        EXPECT_EQ(back.metrics.policyName, state.metrics.policyName);
        EXPECT_EQ(sim.finalize(back).meanJobsInSystem,
                  sim.finalize(state).meanJobsInSystem);
    }
    // The scenario reached every path that moves a load or a count.
    const OnlineMetrics m = sim.finalize(state);
    EXPECT_TRUE(parked);
    EXPECT_TRUE(queued);
    EXPECT_GT(m.crashEvents, 0);
    EXPECT_GT(m.workLostSeconds, 0.0);
    EXPECT_GT(m.jobsShed, 0);
    EXPECT_GT(m.jobsCompleted, 0);
}

OnlineOptions
deltaScenario()
{
    OnlineOptions opts = smallScenario();
    opts.delta.reuseKernel = true;
    opts.delta.warmStartBids = true;
    return opts;
}

TEST(Recovery, DeltaStateRoundTripsAndResumes)
{
    // Delta re-clearing adds nothing to the persisted run state (the
    // kernel cache is rebuilt, the mean-field seed recomputed): the
    // encoding must be a fixed point of decode, and a decoded state
    // must resume bit-identically.
    CharacterizationCache cache;
    const OnlineOptions opts = deltaScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());

    OnlineRunState state = sim.initState(ab);
    for (int e = 0; e < 4; ++e)
        sim.runEpoch(state, ab, FractionSource::Estimated, injector);

    const std::string encoded = encodeOnlineState(state, opts);
    // Pins the state bytes, and through the frozen prefix's CRC they
    // hold, the job segment's. The literal changes with kStateVersion
    // (src/eval/online.cc) and with the options fingerprint in bytes
    // 4-8, which onlineStateFingerprint hashes from the scenario.
    EXPECT_EQ(crc32(encoded), 0xe238eb5du);
    auto decoded = roundTrip(state, opts, ab.name());
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(encodeOnlineState(decoded.value(), opts), encoded);

    // Resuming the decoded state must match the uninterrupted drive.
    OnlineRunState resumed = decoded.take();
    sim.runEpoch(state, ab, FractionSource::Estimated, injector);
    sim.runEpoch(resumed, ab, FractionSource::Estimated, injector);
    EXPECT_EQ(crc32(encodeOnlineState(resumed, opts)),
              crc32(encodeOnlineState(state, opts)));
}

TEST(Recovery, KillMidRunRecoversTheDeltaOutcome)
{
    // The crash-recovery oracle with delta re-clearing on: the
    // recovered run rebuilds its kernel cache and recomputes its
    // mean-field seeds, so it must land on the uninterrupted outcome
    // exactly.
    CharacterizationCache cache;
    OnlineSimulator sim(cache, deltaScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const OnlineMetrics plain = sim.run(ab, FractionSource::Estimated);

    const fs::path dir = freshDir();
    {
        auto store = openStore(dir, 3);
        runAndAbandonAfter(sim, ab, store, 5);
    }
    auto store = openStore(dir, 3);
    const durability::RecoveredState rec = store.recover();
    ASSERT_EQ(rec.frontierEpoch(), 5u);
    auto resumed =
        sim.runDurable(ab, FractionSource::Estimated, store, &rec);
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    expectSameSimulation(resumed.value(), plain);
    EXPECT_TRUE(resumed.value().recovered);
}

/** What an uninterrupted durable run of a scenario leaves on disk. */
struct Golden
{
    OnlineMetrics metrics;
    std::string snapshot;
    std::string segment;
};

/** Run @p sim to the end in a fresh @p dir, snapshotting every 3. */
Golden
goldenRun(OnlineSimulator &sim, const alloc::AllocationPolicy &policy,
          const fs::path &dir)
{
    Golden g;
    auto store = openStore(dir, 3);
    auto run = sim.runDurable(policy, FractionSource::Estimated, store);
    EXPECT_TRUE(run.ok()) << run.status().toString();
    if (run.ok())
        g.metrics = run.take();
    g.snapshot = fileBytes(
        durability::SnapshotStore(dir.string(), 2)
            .pathFor(static_cast<std::uint64_t>(sim.epochCount())));
    g.segment = fileBytes(dir / "jobs.amsg");
    return g;
}

/** Resume @p dir and expect it to finish on @p golden's bytes, after
 *  replaying @p replayed epochs when that is not negative. */
void
expectResumesTo(OnlineSimulator &sim, const alloc::AllocationPolicy &policy,
                const fs::path &dir, const Golden &golden,
                int replayed = -1)
{
    auto store = openStore(dir, 3);
    const durability::RecoveredState rec = store.recover();
    auto resumed =
        sim.runDurable(policy, FractionSource::Estimated, store, &rec);
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    EXPECT_TRUE(resumed.value().recovered);
    if (replayed >= 0) {
        EXPECT_EQ(resumed.value().recoveryReplayedEpochs, replayed);
    }
    expectSameSimulation(resumed.value(), golden.metrics);
    EXPECT_EQ(fileBytes(durability::SnapshotStore(dir.string(), 2)
                            .pathFor(static_cast<std::uint64_t>(
                                sim.epochCount()))),
              golden.snapshot);
    EXPECT_EQ(fileBytes(dir / "jobs.amsg"), golden.segment);
}

/** A run of @p sim abandoned after its epoch-7 commit (snapshots at 3
 *  and 6, epoch 7 journaled). */
void
abandonAfterSeven(const OnlineSimulator &sim,
                  const alloc::AllocationPolicy &policy, const fs::path &dir)
{
    fs::create_directories(dir);
    auto store = openStore(dir, 3);
    runAndAbandonAfter(sim, policy, store, 7);
}

TEST(Recovery, TornSegmentTailIsCutOnResume)
{
    // A crash mid-append, or between the append and the snapshot that
    // would have named it, leaves records past the newest snapshot's
    // prefix. The resume cuts them and the redo writes them again.
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const fs::path root = freshDir();
    const Golden golden = goldenRun(sim, ab, root / "golden");

    const fs::path dir = root / "torn";
    abandonAfterSeven(sim, ab, dir);
    const std::string named = fileBytes(dir / "jobs.amsg");
    ASSERT_GT(named.size(), durability::AppendFile::kHeaderBytes);
    {
        std::ofstream out(dir / "jobs.amsg",
                          std::ios::binary | std::ios::app);
        out << std::string(100, '\xab');
    }
    expectResumesTo(sim, ab, dir, golden);
}

TEST(Recovery, OlderKeptSnapshotResumesOverALongerSegment)
{
    // The newest snapshot is rejected, so recovery falls back to the
    // kept generation before it, which names a shorter prefix of the
    // same segment: no byte a kept snapshot names was ever dropped.
    // The journal was never cut at the newer snapshot, so every epoch
    // after the older one is replayed and verified, not re-executed
    // blind.
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const fs::path root = freshDir();
    const Golden golden = goldenRun(sim, ab, root / "golden");

    const fs::path dir = root / "fallback";
    abandonAfterSeven(sim, ab, dir);
    const fs::path newest = dir / "snapshot-00000006.amss";
    std::string bytes = fileBytes(newest);
    ASSERT_FALSE(bytes.empty());
    bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
    {
        std::ofstream out(newest, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    {
        auto store = openStore(dir, 3);
        const durability::RecoveredState rec = store.recover();
        ASSERT_EQ(rec.snapshotEpoch, 3u);
        std::vector<std::uint64_t> epochs;
        for (const durability::JournalEntry &entry : rec.entries)
            epochs.push_back(entry.epoch);
        EXPECT_EQ(epochs, (std::vector<std::uint64_t>{4, 5, 6, 7}));
        EXPECT_FALSE(rec.tornTail);
    }
    expectResumesTo(sim, ab, dir, golden, /*replayed=*/4);
}

TEST(Recovery, BadRecordBeforeTheSnapshotEpochReexecutesFromTheSnapshot)
{
    // A record the newest snapshot already holds fails its checksum.
    // The scan's valid prefix ends there, so the records after it are
    // not replayed: the run resumes from the snapshot and re-executes
    // the journaled epoch past it. It still finishes on the
    // uninterrupted run's bytes.
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const fs::path root = freshDir();
    const Golden golden = goldenRun(sim, ab, root / "golden");

    const fs::path dir = root / "bad_record";
    abandonAfterSeven(sim, ab, dir);
    const fs::path journal = dir / "journal.amjl";
    std::string bytes = fileBytes(journal);
    constexpr std::size_t kRecordBytes = 36; // 8-byte frame + entry
    ASSERT_EQ(bytes.size(), durability::Journal::kHeaderBytes +
                                7 * kRecordBytes);
    // The last payload byte of record 2 (epoch 2).
    const std::size_t flip =
        durability::Journal::kHeaderBytes + 2 * kRecordBytes - 1;
    bytes[flip] = static_cast<char>(bytes[flip] ^ 0x01);
    {
        std::ofstream out(journal, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    {
        auto store = openStore(dir, 3);
        const durability::RecoveredState rec = store.recover();
        EXPECT_EQ(rec.snapshotEpoch, 6u);
        EXPECT_TRUE(rec.entries.empty());
        EXPECT_TRUE(rec.tornTail);
        EXPECT_EQ(rec.journalValidBytes,
                  durability::Journal::kHeaderBytes + kRecordBytes);
    }
    expectResumesTo(sim, ab, dir, golden, /*replayed=*/0);
}

TEST(Recovery, DamagedSegmentIsAClassifiedError)
{
    // A segment shorter than the prefix the snapshot names, one whose
    // prefix has another CRC, and one with a bad header all refuse the
    // resume with a ParseError instead of replaying from wrong records.
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const fs::path root = freshDir();
    const auto damaged = [&](const std::string &name, auto &&edit) {
        SCOPED_TRACE(name);
        const fs::path dir = root / name;
        abandonAfterSeven(sim, ab, dir);
        std::string bytes = fileBytes(dir / "jobs.amsg");
        ASSERT_GT(bytes.size(), durability::AppendFile::kHeaderBytes);
        edit(bytes);
        {
            std::ofstream out(dir / "jobs.amsg",
                              std::ios::binary | std::ios::trunc);
            out << bytes;
        }
        auto store = openStore(dir, 3);
        const durability::RecoveredState rec = store.recover();
        auto resumed =
            sim.runDurable(ab, FractionSource::Estimated, store, &rec);
        ASSERT_FALSE(resumed.ok());
        EXPECT_EQ(resumed.status().kind(), ErrorKind::ParseError);
        EXPECT_NE(resumed.status().message().find("job segment"),
                  std::string::npos)
            << resumed.status().toString();
    };
    damaged("short", [](std::string &b) { b.pop_back(); });
    damaged("mismatched",
            [](std::string &b) { b[b.size() - 5] ^= 0x20; });
    damaged("bad_header", [](std::string &b) { b[0] = 'X'; });
}

TEST(Recovery, FreshRunNeverReadsAStaleSegment)
{
    // A fresh run in a directory that still holds another run's
    // segment (or a damaged one) discards it with the journal and the
    // snapshots, and finishes on the bytes of a run in an empty one.
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const fs::path root = freshDir();
    const Golden golden = goldenRun(sim, ab, root / "golden");

    std::string foreign = golden.segment;
    for (std::size_t i = durability::AppendFile::kHeaderBytes;
         i < foreign.size(); ++i)
        foreign[i] = static_cast<char>(i);
    for (const std::string &stale : {foreign, std::string("JUNK")}) {
        const fs::path dir = root / ("stale" + std::to_string(stale.size()));
        fs::create_directories(dir);
        {
            std::ofstream out(dir / "jobs.amsg",
                              std::ios::binary | std::ios::trunc);
            out << stale;
        }
        auto store = openStore(dir, 3);
        auto run = sim.runDurable(ab, FractionSource::Estimated, store);
        ASSERT_TRUE(run.ok()) << run.status().toString();
        EXPECT_EQ(fileBytes(dir / "jobs.amsg"), golden.segment);
        EXPECT_EQ(fileBytes(durability::SnapshotStore(dir.string(), 2)
                                .pathFor(static_cast<std::uint64_t>(
                                    sim.epochCount()))),
                  golden.snapshot);
    }
}

TEST(Recovery, DecodeRejectsEveryShortOrFlippedSegment)
{
    // The segment is read back from disk, so the decoder treats it as
    // untrusted: every cut inside the named prefix and every flipped
    // byte in it is a ParseError, while bytes past it are ignored.
    CharacterizationCache cache;
    const OnlineOptions opts = smallScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());
    OnlineRunState state = sim.initState(ab);
    for (int e = 0; e < 7; ++e)
        sim.runEpoch(state, ab, FractionSource::Estimated, injector);
    const std::string encoded = encodeOnlineState(state, opts);
    const std::string segment = segmentOf(state);
    ASSERT_GT(segment.size(), 0u);

    const auto expectParseError = [&](const std::string &bytes) {
        auto decoded = decodeOnlineState(encoded, bytes, opts, ab.name());
        ASSERT_FALSE(decoded.ok());
        EXPECT_EQ(decoded.status().kind(), ErrorKind::ParseError);
    };
    for (std::size_t n = 0; n < segment.size(); ++n) {
        SCOPED_TRACE("cut at " + std::to_string(n));
        expectParseError(segment.substr(0, n));
        std::string flipped = segment;
        flipped[n] = static_cast<char>(flipped[n] ^ 0x10);
        SCOPED_TRACE("flip at " + std::to_string(n));
        expectParseError(flipped);
    }
    auto extra = decodeOnlineState(encoded, segment + "extra records",
                                   opts, ab.name());
    ASSERT_TRUE(extra.ok()) << extra.status().toString();
    EXPECT_EQ(encodeOnlineState(extra.value(), opts), encoded);
}

TEST(Recovery, DecodeRejectsAFrozenPrefixShortOfTheDoneJobs)
{
    // The cursor a snapshot names must be where runEpoch leaves it.
    // A state whose done records sit in the snapshot with a frozen
    // prefix of zero is well formed bytes, but not a state any run
    // reaches: the decoder refuses it.
    CharacterizationCache cache;
    const OnlineOptions opts = smallScenario();
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    const robustness::FaultInjector injector(
        opts.faults, static_cast<std::size_t>(opts.servers),
        sim.epochCount());
    OnlineRunState state = sim.initState(ab);
    for (int e = 0; e < 7; ++e)
        sim.runEpoch(state, ab, FractionSource::Estimated, injector);
    ASSERT_GT(state.frozenJobs, 0u);

    // Head: version, fingerprint, epoch, RNG, job count (56 bytes),
    // then the frozen prefix's u64 length and u32 CRC.
    const std::size_t head = 56;
    const std::string encoded = encodeOnlineState(state, opts);
    std::string unfrozen = encoded.substr(0, head);
    unfrozen.append(12, '\0');
    unfrozen += segmentOf(state) + encoded.substr(head + 12);
    auto bad = decodeOnlineState(unfrozen, "", opts, ab.name());
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().kind(), ErrorKind::SemanticError);
    EXPECT_NE(bad.status().message().find("longest done prefix"),
              std::string::npos)
        << bad.status().toString();

    // The same bytes with the right prefix length and CRC decode.
    ByteWriter prefix;
    prefix.putU64(state.frozenJobs);
    prefix.putU32(state.frozenJobsCrc);
    auto good = decodeOnlineState(
        encoded.substr(0, head) + prefix.take() + encoded.substr(head + 12),
        segmentOf(state), opts, ab.name());
    ASSERT_TRUE(good.ok()) << good.status().toString();
    EXPECT_EQ(encodeOnlineState(good.value(), opts), encoded);
}

} // namespace
} // namespace amdahl::eval
