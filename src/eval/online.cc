#include "online.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>

#include "common/bytes.hh"
#include "common/check.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/bidding.hh"
#include "core/bidding_kernel.hh"
#include "eval/population.hh"
#include "obs/span.hh"
#include "obs/timer.hh"
#include "obs/trace.hh"
#include "sim/workload_library.hh"

namespace amdahl::eval {

OnlineSimulator::OnlineSimulator(CharacterizationCache &cache,
                                 OnlineOptions opts)
    : cache_(cache), opts_(opts)
{
    if (opts_.users < 1 || opts_.servers < 1 ||
        opts_.coresPerServer < 1) {
        fatal("online scenario needs users, servers, and cores");
    }
    // Each check negates the valid range, so NaN fails it too.
    if (!(opts_.epochSeconds > 0.0 && std::isfinite(opts_.epochSeconds) &&
          opts_.horizonSeconds > 0.0 &&
          std::isfinite(opts_.horizonSeconds))) {
        fatal("epoch and horizon must be positive and finite, got ",
              opts_.epochSeconds, " and ", opts_.horizonSeconds);
    }
    if (!(opts_.arrivalsPerServerEpoch >= 0.0 &&
          std::isfinite(opts_.arrivalsPerServerEpoch))) {
        fatal("arrival rate must be non-negative and finite, got ",
              opts_.arrivalsPerServerEpoch);
    }
    if (!(opts_.workScaleMin > 0.0 &&
          opts_.workScaleMax >= opts_.workScaleMin &&
          std::isfinite(opts_.workScaleMax))) {
        fatal("invalid work-scale range [", opts_.workScaleMin, ", ",
              opts_.workScaleMax, "]");
    }
    if (!opts_.serverCores.empty() &&
        opts_.serverCores.size() !=
            static_cast<std::size_t>(opts_.servers)) {
        fatal("serverCores has ", opts_.serverCores.size(),
              " entries for ", opts_.servers, " servers");
    }
    int max_cores = opts_.coresPerServer;
    for (int c : opts_.serverCores) {
        if (c < 1)
            fatal("server core counts must be positive");
        max_cores = std::max(max_cores, c);
    }
    if (max_cores > cache_.simulator().server().cores()) {
        fatal("online servers have up to ", max_cores,
              " cores but the characterization machine only ",
              cache_.simulator().server().cores(),
              "; progress would be unmeasurable");
    }
    if (!std::isfinite(opts_.admission.maxLoadFactor) ||
        opts_.admission.maxLoadFactor <= 0.0) {
        fatal("admission load factor must be positive and finite, "
              "got ", opts_.admission.maxLoadFactor);
    }
    if (opts_.admission.maxQueueLength < 0)
        fatal("admission queue bound must be non-negative");
    robustness::validateFaultOptions(opts_.faults);
    if (const Status st = net::validateShardedOptions(opts_.net);
        !st.isOk()) {
        fatal("invalid sharded clearing options: ", st.toString());
    }
}

namespace {

/** Cap on the deficit-compensation budget multiplier. */
constexpr double kMaxCompensation = 3.0;

/** Epochs in the options' horizon: ceil(horizon / epoch). */
int
epochsIn(const OnlineOptions &opts)
{
    return static_cast<int>(
        std::ceil(opts.horizonSeconds / opts.epochSeconds));
}

/** Jobs admitted and not yet done; every admission appends to the job
 *  log and every completion counts in jobsCompleted. */
std::size_t
inFlight(const OnlineRunState &s)
{
    return s.jobs.size() -
           static_cast<std::size_t>(s.metrics.jobsCompleted);
}

/**
 * What the job log and the wait queue determine, so the encoding leaves
 * it out: per-server placer loads (the not-done jobs placed there), the
 * completion count (the done jobs) and the arrival count (every arrival
 * was logged, waits in the queue, or was shed).
 */
struct LogFacts
{
    std::vector<int> loads;
    int jobsCompleted = 0;
    int jobsArrived = 0;

    bool operator==(const LogFacts &) const = default;
};

LogFacts
logFacts(const OnlineRunState &s, std::size_t servers)
{
    LogFacts f;
    f.loads.assign(servers, 0);
    for (const auto &job : s.jobs) {
        if (job.done())
            ++f.jobsCompleted;
        else if (!job.unplaced())
            ++f.loads[job.server];
    }
    // Unsigned, so a decoded shed count cannot overflow the sum.
    f.jobsArrived = static_cast<int>(
        s.jobs.size() + s.waitQueue.size() +
        static_cast<std::size_t>(s.metrics.jobsShed));
    return f;
}

/** Tenant budgets: the first draws of a run's RNG, so a pure function
 *  of the seed. */
std::vector<double>
drawBudgets(Rng &rng, const OnlineOptions &opts)
{
    std::vector<double> budgets(static_cast<std::size_t>(opts.users));
    for (auto &b : budgets) {
        b = static_cast<double>(
            rng.uniformInt(kMinBudgetClass, kMaxBudgetClass));
    }
    return budgets;
}

/** Cores of server j under the options' cluster shape. */
int
coresOf(const OnlineOptions &opts, std::size_t j)
{
    return opts.serverCores.empty()
               ? opts.coresPerServer
               : opts.serverCores[j];
}

/** Emit the run_start event (fresh runs only; on a recovery the event
 *  is already durable in the trace file). */
void
emitRunStart(const OnlineOptions &opts, const std::string &policyName)
{
    if (auto *sink = obs::traceSink()) {
        obs::TraceEvent(*sink, "run_start")
            .field("policy", policyName)
            .field("seed", opts.seed)
            .field("users", opts.users)
            .field("servers", opts.servers)
            .field("epoch_seconds", opts.epochSeconds)
            .field("horizon_seconds", opts.horizonSeconds)
            .field("faults", opts.faults.enabled)
            .field("admission", opts.admission.enabled);
    }
}

/** Layout version of encodeOnlineState; bump on any field change. */
constexpr std::uint32_t kStateVersion = 7;

/*
 * The layout of the state encoding, one field walk per record (see
 * FieldWriter): encode and the digest run each walk with a FieldWriter
 * over the const state, decode with a FieldReader.
 */

/** One job record: nine fixed-width 8-byte fields. */
template <class Io, class Job>
void
walkJob(Io &io, Job &job)
{
    io(job.user, job.server, job.workloadIndex, job.arrivalSeconds,
       job.totalWork, job.remainingWork, job.completionSeconds,
       job.checkpointedWork, job.epochsSinceCheckpoint);
}

/** The weighted-speedup accumulator. */
template <class Io, class Stats>
void
walkStats(Io &io, Stats &st)
{
    io(st.n, st.m, st.m2, st.lo, st.hi);
}

/** After the version and fingerprint, up to the unfrozen job records:
 *  the epoch, the RNG, the job count and the frozen prefix's length
 *  and CRC. */
template <class Io, class State, class Words, class Count>
void
walkHead(Io &io, State &s, Words &rng, Count &jobCount)
{
    io(s.epoch, rng[0], rng[1], rng[2], rng[3], jobCount, s.frozenJobs,
       s.frozenJobsCrc);
}

/** After the job records: the wait queue to the end. */
template <class Io, class State, class Placer, class Stats>
void
walkTail(Io &io, State &s, Placer &placer, Stats &stats)
{
    io.records(s.waitQueue, [&](auto &job) { walkJob(io, job); });
    io(s.queueDelaySum, placer.live, placer.prices, placer.sinceUpdate,
       placer.nextRoundRobin);
    walkStats(io, stats);
    auto &m = s.metrics;
    io(s.granted, s.entitled, s.entitledAvail, m.nonConvergedEpochs,
       m.fallbackEpochsDamped, m.fallbackEpochsProportional,
       m.fallbackEpochsDeadline, m.deadlineExpiredEpochs, m.jobsQueued,
       m.jobsShed, m.peakQueueLength, m.crashEvents, m.replacements,
       m.workLostSeconds, m.occupancyHistory, m.speedupHistory,
       s.net.ticks, s.net.globalRound, s.net.edgeSeq,
       m.netDegradedRounds, m.netStaleBidRounds, m.netRetransmits,
       m.netQuorumCollapses);
    // The kernel cache is deliberately absent: a recovered run
    // rebuilds it, and it is bitwise invisible. So is all that
    // decodeOnlineState derives.
}

} // namespace

std::uint32_t
onlineStateFingerprint(const OnlineOptions &opts,
                       std::string_view policyName)
{
    Crc32 d;
    d.updateU64(opts.seed);
    d.updateU64(static_cast<std::uint64_t>(opts.users));
    d.updateU64(static_cast<std::uint64_t>(opts.servers));
    d.updateU64(static_cast<std::uint64_t>(opts.coresPerServer));
    d.updateU64(opts.serverCores.size());
    for (int c : opts.serverCores)
        d.updateU64(static_cast<std::uint64_t>(c));
    d.updateF64(opts.epochSeconds);
    d.updateF64(opts.horizonSeconds);
    d.updateF64(opts.arrivalsPerServerEpoch);
    d.updateF64(opts.workScaleMin);
    d.updateF64(opts.workScaleMax);
    d.updateU64(static_cast<std::uint64_t>(kMinBudgetClass));
    d.updateU64(static_cast<std::uint64_t>(kMaxBudgetClass));
    d.updateU32(static_cast<std::uint32_t>(opts.placement));
    d.updateU32(opts.deficitCompensation ? 1 : 0);
    d.updateU32(opts.faults.enabled ? 1 : 0);
    d.updateU64(opts.faults.seed);
    d.updateF64(opts.faults.crashRatePerServerEpoch);
    d.updateU64(static_cast<std::uint64_t>(opts.faults.downEpochs));
    d.updateU64(
        static_cast<std::uint64_t>(opts.faults.checkpointEpochs));
    d.updateF64(opts.faults.bidLossRate);
    // The values of two retired fault knobs (profile-noise stddev,
    // refresh period) keep their slots, so snapshots written before
    // their removal still match and resume.
    d.updateF64(0.0);
    d.updateU64(4);
    d.updateU64(opts.faults.scriptedCrashes.size());
    for (const auto &ev : opts.faults.scriptedCrashes) {
        d.updateU64(static_cast<std::uint64_t>(ev.server));
        d.updateU64(static_cast<std::uint64_t>(ev.crashEpoch));
        d.updateU64(static_cast<std::uint64_t>(ev.recoverEpoch));
    }
    d.updateU32(opts.admission.enabled ? 1 : 0);
    d.updateF64(opts.admission.maxLoadFactor);
    d.updateU64(
        static_cast<std::uint64_t>(opts.admission.maxQueueLength));
    d.updateU64(static_cast<std::uint64_t>(opts.net.shards));
    d.updateU64(opts.net.barrierDeadline);
    d.updateF64(opts.net.quorumFloor);
    d.updateU64(opts.net.maxStaleRounds);
    d.updateF64(opts.net.faults.lossRate);
    d.updateU64(opts.net.faults.delayMin);
    d.updateU64(opts.net.faults.delayMax);
    d.updateF64(opts.net.faults.duplicationRate);
    d.updateU64(opts.net.faults.seed);
    d.updateU32(opts.delta.reuseKernel ? 1 : 0);
    d.updateU32(opts.delta.warmStartBids ? 1 : 0);
    d.updateU64(opts.net.partitions.size());
    for (const auto &w : opts.net.partitions) {
        d.updateU64(static_cast<std::uint64_t>(w.shard));
        d.updateU64(w.fromRound);
        d.updateU64(w.toRound);
    }
    d.update(policyName);
    return d.value();
}

namespace {

/** Bytes walkJob writes: nine fixed-width 8-byte fields. */
constexpr std::size_t kJobBytes = 72;

/**
 * Hand the records of @p jobs to @p sink, kStateChunkJobs at a time
 * through one reused writer, so no piece grows with the job log.
 */
void
emitJobs(std::span<const OnlineJob> jobs,
         const durability::PayloadSink &sink)
{
    FieldWriter chunk;
    chunk.reserve(kJobBytes * std::min(jobs.size(), kStateChunkJobs));
    for (std::size_t k = 0; k < jobs.size(); k += kStateChunkJobs) {
        chunk.clear();
        for (const OnlineJob &job :
             jobs.subspan(k, std::min(kStateChunkJobs, jobs.size() - k)))
            walkJob(chunk, job);
        sink(chunk.bytes());
    }
}

/**
 * Move the frozen-prefix cursor past the done jobs that follow it,
 * folding their records into the cached CRC. The only place a run
 * moves the cursor (decode restores it from a snapshot): jobs are only
 * ever appended, and a done job is never touched again, so the prefix
 * stays frozen.
 */
void
advanceFrozenJobs(OnlineRunState &s)
{
    std::size_t end = s.frozenJobs;
    while (end < s.jobs.size() && s.jobs[end].done())
        ++end;
    emitJobs(std::span<const OnlineJob>(s.jobs).subspan(
                 s.frozenJobs, end - s.frozenJobs),
             [&](std::string_view piece) {
                 s.frozenJobsCrc = crc32Update(
                     s.frozenJobsCrc, piece.data(), piece.size());
             });
    s.frozenJobs = end;
}

/** The jobs past the frozen prefix: the only ones an epoch can
 *  change (or needs to look at to skip the done ones). */
std::span<OnlineJob>
unfrozenJobs(OnlineRunState &s)
{
    return std::span<OnlineJob>(s.jobs).subspan(s.frozenJobs);
}

} // namespace

std::string
encodeOnlineState(const OnlineRunState &s, const OnlineOptions &opts)
{
    // Collecting the pieces never reads the declared CRC.
    return onlineStatePayload(s, opts, 0).collect();
}

durability::SegmentRecords
onlineJobSegment(const OnlineRunState &s)
{
    const std::span<const OnlineJob> frozen =
        std::span<const OnlineJob>(s.jobs).first(s.frozenJobs);
    return {kJobBytes * frozen.size(),
            [frozen](std::uint64_t from,
                     const durability::PayloadSink &sink) {
                AMDAHL_ASSERT(from % kJobBytes == 0 &&
                                  from <= kJobBytes * frozen.size(),
                              "job segment emitted from byte ", from,
                              ", not a record boundary of its ",
                              frozen.size(), " records");
                emitJobs(frozen.subspan(from / kJobBytes), sink);
            }};
}

durability::SnapshotPayload
onlineStatePayload(const OnlineRunState &s, const OnlineOptions &opts,
                   std::uint32_t digest)
{
    AMDAHL_ASSERT(s.frozenJobs == s.jobs.size() ||
                      !s.jobs[s.frozenJobs].done(),
                  "encoding epoch ", s.epoch, " with its frozen-prefix "
                  "cursor at ", s.frozenJobs,
                  ", short of the done prefix of the job log");
    FieldWriter head;
    head(kStateVersion, onlineStateFingerprint(opts, s.metrics.policyName));
    const std::uint64_t jobCount = s.jobs.size();
    walkHead(head, s, s.rng.state(), jobCount);
    FieldWriter tail;
    walkTail(tail, s, s.placer.state(), s.weightedSpeedup.state());
    const std::span<const OnlineJob> jobs =
        std::span<const OnlineJob>(s.jobs).subspan(s.frozenJobs);
    const std::uint64_t size = head.bytes().size() +
                               kJobBytes * jobs.size() +
                               tail.bytes().size();
    return durability::SnapshotPayload(
        size, digest,
        [head = head.take(), jobs,
         tail = tail.take()](const durability::PayloadSink &sink) {
            sink(head);
            emitJobs(jobs, sink);
            sink(tail);
        });
}

std::uint32_t
onlineStateDigest(const OnlineRunState &s, const OnlineOptions &opts)
{
    std::uint32_t digest = 0;
    onlineStatePayload(s, opts, 0).emit([&](std::string_view piece) {
        digest = crc32Update(digest, piece.data(), piece.size());
    });
    // The live values of what decode derives must be the derived ones.
    AMDAHL_ASSERT((LogFacts{s.placer.state().loads, s.metrics.jobsCompleted,
                            s.metrics.jobsArrived} ==
                   logFacts(s, s.placer.state().loads.size())),
                  "placer loads or job counts at epoch ", s.epoch,
                  " differ from the job log's");
    return digest;
}

Result<OnlineRunState>
decodeOnlineState(std::string_view payload, std::string_view segment,
                  const OnlineOptions &opts, std::string_view policyName)
{
    FieldReader r(payload);
    const std::uint32_t version = r.readU32();
    if (r.ok() && version != kStateVersion) {
        return Status::error(ErrorKind::SemanticError, 0,
                             "snapshot state version ", version,
                             "; this build reads version ",
                             kStateVersion);
    }
    const std::uint32_t fingerprint = r.readU32();
    const std::uint32_t expected =
        onlineStateFingerprint(opts, policyName);
    if (r.ok() && fingerprint != expected) {
        return Status::error(
            ErrorKind::SemanticError, 0,
            "snapshot was produced under a different scenario or "
            "policy (state fingerprint ", fingerprint, ", this run's ",
            expected, "); refusing to replay into divergence");
    }

    OnlineRunState s;
    std::array<std::uint64_t, 4> rng_words{};
    std::uint64_t job_count = 0;
    walkHead(r, s, rng_words, job_count);
    s.rng = Rng(rng_words);
    const std::uint64_t frozen = s.frozenJobs;
    if (r.ok() && frozen > job_count) {
        return Status::error(ErrorKind::SemanticError, 0,
                             "snapshot's frozen job prefix of ", frozen,
                             " records is longer than its job log of ",
                             job_count);
    }
    // The frozen records come from the segment, checked against the
    // length and CRC the snapshot names before any is read.
    if (r.ok() && frozen > segment.size() / kJobBytes) {
        return Status::error(ErrorKind::ParseError, 0,
                             "job segment holds ",
                             segment.size() / kJobBytes,
                             " records; the snapshot names ", frozen);
    }
    if (r.ok()) {
        const std::string_view prefix = segment.substr(0, frozen * kJobBytes);
        if (const std::uint32_t crc = crc32(prefix); crc != s.frozenJobsCrc) {
            return Status::error(ErrorKind::ParseError, 0,
                                 "job segment's first ", frozen,
                                 " records have CRC ", crc,
                                 "; the snapshot names ",
                                 s.frozenJobsCrc);
        }
        FieldReader records(prefix);
        s.jobs.reserve(static_cast<std::size_t>(
            frozen + std::min(job_count - frozen, r.remaining() / kJobBytes)));
        for (std::uint64_t i = 0; records.ok() && i < frozen; ++i)
            walkJob(records, s.jobs.emplace_back());
        if (!records.ok())
            return records.status();
    }
    for (std::uint64_t i = frozen; r.ok() && i < job_count; ++i)
        walkJob(r, s.jobs.emplace_back());
    alloc::JobPlacerState placer;
    OnlineStatsState stats;
    walkTail(r, s, placer, stats);
    r.expectEnd();
    if (!r.ok())
        return r.status();

    // The container CRC already matched, so these only fire on a
    // collision or an encoder bug — but the reader promises to reject
    // every inconsistent state, not just the probable ones.
    const auto users = static_cast<std::size_t>(opts.users);
    const auto servers = static_cast<std::size_t>(opts.servers);
    const int epochs = epochsIn(opts);
    if (s.epoch < 0 || s.epoch > epochs) {
        return Status::error(ErrorKind::SemanticError, 0,
                             "snapshot is at epoch ", s.epoch,
                             " of a ", epochs, "-epoch horizon");
    }
    if (s.granted.size() != users ||
        s.entitled.size() != users || s.entitledAvail.size() != users) {
        return Status::error(ErrorKind::SemanticError, 0,
                             "snapshot tenant vectors do not match ",
                             users, " users");
    }
    if (placer.live.size() != servers || placer.prices.size() != servers ||
        placer.sinceUpdate.size() != servers) {
        return Status::error(ErrorKind::SemanticError, 0,
                             "snapshot server vectors do not match ",
                             servers, " servers");
    }
    if (placer.nextRoundRobin >= servers) {
        return Status::error(ErrorKind::SemanticError, 0,
                             "snapshot round-robin cursor ",
                             placer.nextRoundRobin, " is past ",
                             servers, " servers");
    }
    if (!s.net.edgeSeq.empty() &&
        s.net.edgeSeq.size() != 2 * opts.net.shards) {
        return Status::error(ErrorKind::SemanticError, 0,
                             "snapshot transport session has ",
                             s.net.edgeSeq.size(),
                             " edge sequences; this scenario's ",
                             opts.net.shards, " shards need ",
                             2 * opts.net.shards);
    }
    const auto epoch_entries = static_cast<std::size_t>(s.epoch);
    if (s.metrics.occupancyHistory.size() != epoch_entries ||
        s.metrics.speedupHistory.size() != epoch_entries) {
        return Status::error(ErrorKind::SemanticError, 0,
                             "snapshot history length does not match "
                             "its epoch count ", s.epoch);
    }
    // The cursor is where runEpoch leaves it: the longest done prefix.
    const auto first_unfrozen = s.jobs.begin() +
                                static_cast<std::ptrdiff_t>(s.frozenJobs);
    if (!std::all_of(s.jobs.begin(), first_unfrozen,
                     [](const OnlineJob &job) { return job.done(); }) ||
        (first_unfrozen != s.jobs.end() && first_unfrozen->done())) {
        return Status::error(ErrorKind::SemanticError, 0,
                             "snapshot's frozen job prefix of ",
                             s.frozenJobs,
                             " records is not the job log's longest "
                             "done prefix");
    }
    // runEpoch indexes tenant, server and workload tables with these.
    const std::size_t workloads = sim::workloadLibrary().size();
    const auto bad_job = [&](const OnlineJob &job) {
        return job.user >= users || job.workloadIndex >= workloads ||
               (job.server >= servers && !job.unplaced());
    };
    if (std::any_of(s.jobs.begin(), s.jobs.end(), bad_job) ||
        std::any_of(s.waitQueue.begin(), s.waitQueue.end(), bad_job)) {
        return Status::error(ErrorKind::SemanticError, 0,
                             "snapshot job names a user, server or "
                             "workload outside ", users, " users, ",
                             servers, " servers and ", workloads,
                             " workloads");
    }
    // Derived, never stored, so a snapshot cannot disagree with its
    // own job log, seed or policy.
    LogFacts facts = logFacts(s, servers);
    placer.loads = std::move(facts.loads);
    s.metrics.jobsCompleted = facts.jobsCompleted;
    s.metrics.jobsArrived = facts.jobsArrived;
    Rng budget_rng(opts.seed);
    s.budgets = drawBudgets(budget_rng, opts);
    s.metrics.policyName = std::string(policyName);
    s.placer = alloc::JobPlacer(opts.placement, std::move(placer));
    s.weightedSpeedup = OnlineStats(stats);
    return s;
}

int
OnlineSimulator::epochCount() const
{
    return epochsIn(opts_);
}

OnlineRunState
OnlineSimulator::initState(const alloc::AllocationPolicy &policy) const
{
    // All randomness is re-seeded per run: every policy faces the
    // identical arrival stream. The fault schedule draws from its own
    // seed, so toggling it never shifts the arrivals either.
    OnlineRunState s;
    s.rng = Rng(opts_.seed);
    s.budgets = drawBudgets(s.rng, opts_);
    s.metrics.policyName = policy.name();
    s.placer = alloc::JobPlacer(opts_.placement,
                                static_cast<std::size_t>(opts_.servers));
    s.granted.assign(static_cast<std::size_t>(opts_.users), 0.0);
    s.entitled.assign(static_cast<std::size_t>(opts_.users), 0.0);
    s.entitledAvail.assign(static_cast<std::size_t>(opts_.users), 0.0);
    return s;
}

void
OnlineSimulator::runEpoch(OnlineRunState &s,
                          const alloc::AllocationPolicy &policy,
                          FractionSource source,
                          const robustness::FaultInjector &injector) const
{
    const int epoch = s.epoch;
    const double now = epoch * opts_.epochSeconds;
    const bool faulty = opts_.faults.enabled;
    const bool admission = opts_.admission.enabled;
    const auto &library = sim::workloadLibrary();

    auto &rng = s.rng;
    auto &placer = s.placer;
    // Liveness lives in the placer alone; setServerLive writes
    // through to what this reads.
    const std::vector<char> &live = placer.state().live;
    auto &metrics = s.metrics;
    auto &jobs = s.jobs;
    auto &budgets = s.budgets;
    auto &wait_queue = s.waitQueue;
    auto &granted = s.granted;
    auto &entitled = s.entitled;
    auto &entitled_avail = s.entitledAvail;
    auto &queue_delay_sum = s.queueDelaySum;
    std::vector<char> crashing(static_cast<std::size_t>(opts_.servers),
                               0);

    auto end_epoch = [&] {
        ++s.epoch;
        advanceFrozenJobs(s);
    };

    obs::ScopedTimer epoch_timer(
        obs::timeHistogram("time.online.epoch_us"));
    if (auto *sink = obs::traceSink()) {
        obs::TraceEvent(*sink, "epoch_start")
            .field("epoch", epoch)
            .field("now", now);
    }

    // Root of this epoch's span tree: derived from (seed, epoch) and
    // stamped with the persistent net-session clock, so the rungs and
    // rounds cleared below hang off it. Zero-width for epochs that
    // never touch the sharded transport (virtual time stands still).
    const std::uint64_t epochSpanId =
        obs::spanSink() != nullptr
            ? obs::spanId(obs::SpanKind::Epoch, opts_.seed,
                          static_cast<std::uint64_t>(epoch))
            : 0;
    const std::uint64_t epochSpanT0 = s.net.ticks;
    std::optional<obs::SpanParentScope> epochScope;
    if (epochSpanId != 0)
        epochScope.emplace(epochSpanId);
    const auto emitEpochSpan = [&](bool idle) {
        if (auto *spanTrace = obs::spanSink()) {
            obs::SpanEvent(*spanTrace, "epoch", epochSpanId, 0,
                           epochSpanT0, s.net.ticks)
                .field("epoch", epoch)
                .field("idle", idle);
        }
    };

    // 0. Fault-schedule bookkeeping: recovered servers rejoin the
    //    market, and jobs stranded by a total outage are placed as
    //    soon as capacity exists again.
    if (faulty) {
        for (std::size_t j : injector.recoveriesAt(epoch)) {
            if (!live[j]) {
                placer.setServerLive(j, true);
                if (auto *sink = obs::traceSink()) {
                    obs::TraceEvent(*sink, "churn")
                        .field("epoch", epoch)
                        .field("kind", "recovery")
                        .field("server", j);
                }
            }
        }
        for (std::size_t j : injector.crashesDuring(epoch))
            crashing[j] = 1;
        if (placer.anyLive()) {
            for (auto &job : unfrozenJobs(s)) {
                if (!job.done() && job.unplaced()) {
                    job.server = placer.place();
                    ++metrics.replacements;
                }
            }
        }
    }

    // Crash application (shared by the idle-epoch early-out and
    // the main path): servers failing *during* this epoch leave
    // the market, their jobs roll back to the last checkpoint and
    // are re-placed through the regular placement machinery.
    auto apply_crashes = [&]() {
        if (!faulty)
            return;
        for (std::size_t j = 0;
             j < static_cast<std::size_t>(opts_.servers); ++j) {
            if (!crashing[j])
                continue;
            placer.setServerLive(j, false);
            ++metrics.crashEvents;
            if (auto *sink = obs::traceSink()) {
                obs::TraceEvent(*sink, "churn")
                    .field("epoch", epoch)
                    .field("kind", "crash")
                    .field("server", j);
            }
            for (auto &job : unfrozenJobs(s)) {
                if (job.done() || job.server != j)
                    continue;
                const double done_work =
                    job.totalWork - job.remainingWork;
                if (done_work > job.checkpointedWork) {
                    const double lost =
                        done_work - job.checkpointedWork;
                    metrics.workLostSeconds += lost;
                    job.remainingWork =
                        job.totalWork - job.checkpointedWork;
                    if (auto *sink = obs::traceSink()) {
                        obs::TraceEvent(*sink,
                                        "checkpoint_rollback")
                            .field("epoch", epoch)
                            .field("user", job.user)
                            .field("server", j)
                            .field("lost_work", lost);
                    }
                }
                job.epochsSinceCheckpoint = 0;
                placer.jobFinished(j);
                if (placer.anyLive()) {
                    job.server = placer.place();
                    ++metrics.replacements;
                } else {
                    job.server = OnlineJob::kUnplaced;
                }
            }
        }
    };

    // 0.7 Admission cap for this epoch, against the servers that
    //     are actually live, and a FIFO drain of the wait queue —
    //     jobs that waited are admitted before this epoch's
    //     arrivals compete for the remaining headroom.
    double admit_cap = 0.0;
    if (admission) {
        int live_servers = 0;
        for (char l : live)
            live_servers += l ? 1 : 0;
        admit_cap = opts_.admission.maxLoadFactor *
                    static_cast<double>(live_servers);
        while (!wait_queue.empty() &&
               static_cast<double>(inFlight(s)) < admit_cap &&
               placer.anyLive()) {
            OnlineJob job = wait_queue.front();
            wait_queue.pop_front();
            job.server = placer.place();
            queue_delay_sum += now - job.arrivalSeconds;
            if (auto *sink = obs::traceSink()) {
                obs::TraceEvent(*sink, "admission")
                    .field("epoch", epoch)
                    .field("action", "admit_from_queue")
                    .field("user", job.user)
                    .field("wait_seconds",
                           now - job.arrivalSeconds)
                    .field("queue_len", wait_queue.size());
            }
            jobs.push_back(job);
        }
    }

    // 1. Arrivals: a Poisson batch for the whole cluster, placed
    //    by the configured discipline. The batch itself (count,
    //    users, workloads, work sizes) is identical across runs
    //    with the same seed — admission control only decides what
    //    happens *after* a job is drawn, so enabling it (or
    //    changing the load factor) never shifts the stream.
    const int count = rng.poisson(opts_.arrivalsPerServerEpoch *
                                  opts_.servers);
    for (int a = 0; a < count; ++a) {
        OnlineJob job;
        job.user = static_cast<std::size_t>(
            rng.uniformInt(0, opts_.users - 1));
        job.workloadIndex =
            static_cast<std::size_t>(rng.uniformInt(
                0,
                static_cast<std::int64_t>(library.size()) - 1));
        job.arrivalSeconds = now;
        const double t1 =
            cache_.fullDatasetSeconds(job.workloadIndex, 1);
        job.totalWork = t1 * rng.uniform(opts_.workScaleMin,
                                         opts_.workScaleMax);
        job.remainingWork = job.totalWork;
        ++metrics.jobsArrived;
        auto trace_arrival = [&](const char *action) {
            if (auto *sink = obs::traceSink()) {
                obs::TraceEvent(*sink, "admission")
                    .field("epoch", epoch)
                    .field("action", action)
                    .field("user", job.user)
                    .field("workload", job.workloadIndex)
                    .field("work", job.totalWork);
            }
        };
        if (!admission) {
            if (faulty && !placer.anyLive())
                job.server = OnlineJob::kUnplaced;
            else
                job.server = placer.place();
            trace_arrival(job.unplaced() ? "park" : "admit");
            jobs.push_back(job);
        } else if (static_cast<double>(inFlight(s)) < admit_cap &&
                   (!faulty || placer.anyLive())) {
            job.server = placer.place();
            trace_arrival("admit");
            jobs.push_back(job);
        } else {
            // Backpressure: over-cap arrivals wait. A full queue
            // sheds one job: the earliest lowest-budget one.
            wait_queue.push_back(job);
            ++metrics.jobsQueued;
            trace_arrival("queue");
            if (wait_queue.size() >
                static_cast<std::size_t>(
                    opts_.admission.maxQueueLength)) {
                std::size_t victim = wait_queue.size() - 1;
                for (std::size_t q = 0; q < wait_queue.size(); ++q) {
                    if (budgets[wait_queue[q].user] <
                        budgets[wait_queue[victim].user]) {
                        victim = q;
                    }
                }
                if (auto *sink = obs::traceSink()) {
                    obs::TraceEvent(*sink, "admission")
                        .field("epoch", epoch)
                        .field("action", "shed")
                        .field("user", wait_queue[victim].user)
                        .field("queue_len",
                               wait_queue.size() - 1);
                }
                wait_queue.erase(
                    wait_queue.begin() +
                    static_cast<std::ptrdiff_t>(victim));
                ++metrics.jobsShed;
            }
            metrics.peakQueueLength = std::max(
                metrics.peakQueueLength,
                static_cast<int>(wait_queue.size()));
        }
    }

    // 2. Build the market over placed in-flight jobs. Idle or
    //    crashed servers and jobless tenants are excluded from
    //    this epoch's market.
    std::vector<std::size_t> active;
    std::size_t in_system = 0;
    for (std::size_t k = s.frozenJobs; k < jobs.size(); ++k) {
        if (jobs[k].done())
            continue;
        ++in_system;
        if (!jobs[k].unplaced())
            active.push_back(k);
    }
    metrics.occupancyHistory.push_back(
        static_cast<double>(in_system));
    if (active.empty()) {
        metrics.speedupHistory.push_back(0.0);
        apply_crashes();
        if (auto *sink = obs::traceSink()) {
            obs::TraceEvent(*sink, "epoch_end")
                .field("epoch", epoch)
                .field("in_system", in_system)
                .field("idle", true);
        }
        emitEpochSpan(true);
        end_epoch();
        return;
    }

    std::vector<int> server_map(
        static_cast<std::size_t>(opts_.servers), -1);
    std::vector<double> capacities;
    for (std::size_t k : active) {
        AMDAHL_ASSERT(live[jobs[k].server],
                      "job placed on a dead server at epoch ",
                      epoch);
        auto &slot = server_map[jobs[k].server];
        if (slot < 0) {
            slot = static_cast<int>(capacities.size());
            capacities.push_back(static_cast<double>(
                coresOf(opts_, jobs[k].server)));
        }
    }

    std::vector<int> user_map(static_cast<std::size_t>(opts_.users),
                              -1);
    std::vector<core::MarketUser> market_users;
    std::vector<std::vector<std::size_t>> user_job_ids;
    for (std::size_t k : active) {
        auto &slot = user_map[jobs[k].user];
        if (slot < 0) {
            slot = static_cast<int>(market_users.size());
            core::MarketUser user;
            user.name = "tenant" + std::to_string(jobs[k].user);
            user.budget = budgets[jobs[k].user];
            if (opts_.deficitCompensation &&
                granted[jobs[k].user] > 0.0) {
                const double boost = std::clamp(
                    entitled[jobs[k].user] /
                        granted[jobs[k].user],
                    1.0, kMaxCompensation);
                user.budget *= boost;
            }
            market_users.push_back(std::move(user));
            user_job_ids.emplace_back();
        }
        core::JobSpec spec;
        spec.server = static_cast<std::size_t>(
            server_map[jobs[k].server]);
        spec.parallelFraction =
            cache_.fraction(jobs[k].workloadIndex, source);
        spec.weight = 1.0;
        market_users[static_cast<std::size_t>(slot)]
            .jobs.push_back(spec);
        user_job_ids[static_cast<std::size_t>(slot)].push_back(k);
    }

    core::FisherMarket market(capacities);
    for (auto &user : market_users)
        market.addUser(std::move(user));

    core::BidTransportFaults transport;
    if (faulty) {
        transport.lossRate = opts_.faults.bidLossRate;
        transport.seed = injector.bidSeed(epoch);
    }

    // Delta re-clearing: seed this epoch's bids from the analytic
    // mean-field estimate of this epoch's market. The solver
    // renormalizes and floors whatever seed it is given, so this is a
    // trajectory hint, never a feasibility obligation.
    core::JobMatrix seed;
    if (opts_.delta.warmStartBids) {
        seed = core::meanFieldSeedBids(market);
        obs::metrics().counter("online.delta.meanfield_epochs").add();
    }

    // One clearing context for every policy: the bid-loss model, plus
    // sharded clearing over the simulated network (the transport
    // session rides in the run state so recovery resumes on the same
    // network timeline) and the delta re-clearing plumbing when on.
    // The kernel cache lives in the run state but is never serialized:
    // a recovered run rebuilds it and stays on the original's
    // trajectory. Policies that clear no network forward to their
    // faults overload (AllocationPolicy's default).
    core::ClearingContext ctx;
    ctx.transport = transport;
    if (opts_.net.enabled()) {
        ctx.sharding = &opts_.net;
        ctx.session = &s.net;
    }
    if (!seed.empty())
        ctx.initialBids = &seed;
    if (opts_.delta.reuseKernel) {
        if (!s.kernelCache)
            s.kernelCache = std::make_shared<core::KernelCache>();
        ctx.kernelCache = s.kernelCache.get();
    }
    const auto result = policy.allocate(market, ctx);

    metrics.netDegradedRounds += result.outcome.net.degradedRounds;
    metrics.netStaleBidRounds += result.outcome.net.staleBidRounds;
    metrics.netRetransmits += result.outcome.net.retransmits;
    if (result.outcome.net.quorumCollapsed)
        ++metrics.netQuorumCollapses;

    // Degraded-mode bookkeeping: count epochs the primary
    // procedure failed and which ladder rung served them. A
    // rate-limited warning keeps non-convergence caller-visible
    // without flooding long runs.
    if (result.mode == alloc::ServeMode::DampedRetry)
        ++metrics.fallbackEpochsDamped;
    else if (result.mode == alloc::ServeMode::ProportionalFallback)
        ++metrics.fallbackEpochsProportional;
    else if (result.mode == alloc::ServeMode::DeadlineAnytime)
        ++metrics.fallbackEpochsDeadline;
    if (result.outcome.deadlineExpired)
        ++metrics.deadlineExpiredEpochs;
    const bool primary_failed =
        result.mode != alloc::ServeMode::Primary ||
        (result.outcome.iterations > 0 &&
         !result.outcome.converged);
    if (primary_failed) {
        ++metrics.nonConvergedEpochs;
        if (metrics.nonConvergedEpochs == 1 ||
            metrics.nonConvergedEpochs % 64 == 0) {
            warn(metrics.policyName, ": bidding did not converge ",
                 "at epoch ", epoch, " (",
                 result.outcome.iterations,
                 " iterations; served by ",
                 alloc::toString(result.mode),
                 "; ", metrics.nonConvergedEpochs,
                 " non-converged epochs so far)");
        }
    }

    // The cores of the live servers, crashed or not this epoch.
    double live_capacity = 0.0;
    for (int j = 0; j < opts_.servers; ++j) {
        if (live[static_cast<std::size_t>(j)]) {
            live_capacity += static_cast<double>(
                coresOf(opts_, static_cast<std::size_t>(j)));
        }
    }

    // Contract: an epoch's integral grants never exceed the live
    // capacity — crashed servers' cores must be out of the market.
    if constexpr (checkedBuild) {
        double total_cores = 0.0;
        for (const auto &row : result.cores) {
            for (int c : row)
                total_cores += static_cast<double>(c);
        }
        AMDAHL_ASSERT(total_cores <= live_capacity + 1e-9,
                      "epoch ", epoch, " granted ", total_cores,
                      " cores with only ", live_capacity, " live");
    }

    // Core-second accounting against *base* budgets: the
    // entitlement contract does not move with compensation.
    {
        double active_budget = 0.0;
        double active_capacity = 0.0;
        for (std::size_t ui = 0; ui < user_job_ids.size(); ++ui) {
            active_budget +=
                budgets[jobs[user_job_ids[ui][0]].user];
        }
        for (double c : capacities)
            active_capacity += c;
        for (std::size_t ui = 0; ui < user_job_ids.size(); ++ui) {
            const std::size_t tenant =
                jobs[user_job_ids[ui][0]].user;
            entitled[tenant] += budgets[tenant] / active_budget *
                                active_capacity *
                                opts_.epochSeconds;
            entitled_avail[tenant] +=
                budgets[tenant] / active_budget * live_capacity *
                opts_.epochSeconds;
            granted[tenant] +=
                result.userCores(ui) * opts_.epochSeconds;
        }
    }

    // Feed the placer its congestion signal for the next epoch:
    // equilibrium prices where the policy publishes them (idle
    // servers are free), current loads otherwise.
    {
        const std::vector<int> &loads = placer.state().loads;
        std::vector<double> signal(loads.size(), 0.0);
        const bool has_prices =
            result.outcome.prices.size() == capacities.size();
        for (std::size_t j = 0; j < signal.size(); ++j) {
            const int slot = server_map[j];
            if (has_prices && slot >= 0) {
                signal[j] = result.outcome
                                .prices[static_cast<std::size_t>(slot)];
            } else if (!has_prices) {
                signal[j] = static_cast<double>(loads[j]);
            }
        }
        placer.updatePrices(signal);
    }

    // 3. Advance jobs by their measured speedups. Jobs on a
    //    server that fails during this epoch make no durable
    //    progress: the crash takes their epoch with it.
    double epoch_speedup = 0.0;
    double budget_sum = 0.0;
    for (std::size_t ui = 0; ui < user_job_ids.size(); ++ui) {
        double user_progress = 0.0;
        for (std::size_t kk = 0; kk < user_job_ids[ui].size();
             ++kk) {
            const std::size_t k = user_job_ids[ui][kk];
            auto &job = jobs[k];
            if (faulty && crashing[job.server])
                continue;
            const int cores = result.cores[ui][kk];
            if (cores <= 0)
                continue;
            const double t1 =
                cache_.fullDatasetSeconds(job.workloadIndex, 1);
            const double tx =
                cache_.fullDatasetSeconds(job.workloadIndex,
                                          cores);
            const double rate = t1 / tx; // measured speedup
            user_progress += rate;
            const double done_work =
                rate * opts_.epochSeconds;
            if (done_work >= job.remainingWork) {
                const double used =
                    job.remainingWork / rate;
                job.completionSeconds = now + used;
                job.remainingWork = 0.0;
                ++metrics.jobsCompleted;
                placer.jobFinished(job.server);
            } else {
                job.remainingWork -= done_work;
            }
        }
        const double b = market.user(ui).budget;
        epoch_speedup +=
            b * user_progress /
            static_cast<double>(user_job_ids[ui].size());
        budget_sum += b;
    }
    if (budget_sum > 0.0) {
        s.weightedSpeedup.add(epoch_speedup / budget_sum);
        metrics.speedupHistory.push_back(epoch_speedup /
                                         budget_sum);
    } else {
        metrics.speedupHistory.push_back(0.0);
    }

    apply_crashes();

    // 4. Checkpoint tick: durable progress advances every
    //    checkpointEpochs epochs, bounding what the next crash
    //    can take.
    if (faulty) {
        for (auto &job : unfrozenJobs(s)) {
            if (job.done() || job.unplaced())
                continue;
            ++job.epochsSinceCheckpoint;
            if (job.epochsSinceCheckpoint >=
                opts_.faults.checkpointEpochs) {
                job.checkpointedWork =
                    job.totalWork - job.remainingWork;
                job.epochsSinceCheckpoint = 0;
            }
        }
    }

    if (auto *sink = obs::traceSink()) {
        obs::TraceEvent(*sink, "epoch_end")
            .field("epoch", epoch)
            .field("in_system", in_system)
            .field("idle", false)
            .field("mode", alloc::toString(result.mode))
            .field("weighted_speedup",
                   metrics.speedupHistory.back())
            .field("jobs_completed", metrics.jobsCompleted);
    }
    emitEpochSpan(false);
    end_epoch();
}

OnlineMetrics
OnlineSimulator::finalize(const OnlineRunState &s) const
{
    OnlineMetrics metrics = s.metrics;

    // 5. Aggregate metrics.
    std::vector<double> completions;
    for (const auto &job : s.jobs) {
        if (job.done()) {
            metrics.workCompleted += job.totalWork;
            completions.push_back(job.completionSeconds -
                                  job.arrivalSeconds);
        } else {
            metrics.workCompleted +=
                job.totalWork - job.remainingWork;
        }
    }
    if (!completions.empty()) {
        metrics.meanCompletionSeconds = mean(completions);
        metrics.p95CompletionSeconds = quantile(completions, 0.95);
    }
    // Welford's fold in epoch order: the mean is a function of the
    // history alone, so a recovered run's is the same to the last bit.
    OnlineStats occupancy;
    for (double jobs_in_system : s.metrics.occupancyHistory)
        occupancy.add(jobs_in_system);
    metrics.meanJobsInSystem = occupancy.mean();
    metrics.meanWeightedSpeedup = s.weightedSpeedup.mean();

    double mape = 0.0;
    double mape_avail = 0.0;
    std::size_t ever_active = 0;
    for (std::size_t i = 0; i < s.entitled.size(); ++i) {
        if (s.entitled[i] <= 0.0)
            continue;
        mape += std::abs(s.granted[i] - s.entitled[i]) / s.entitled[i];
        if (s.entitledAvail[i] > 0.0) {
            mape_avail +=
                std::abs(s.granted[i] - s.entitledAvail[i]) /
                s.entitledAvail[i];
        }
        ++ever_active;
    }
    if (ever_active > 0) {
        metrics.longRunEntitlementMape =
            100.0 * mape / static_cast<double>(ever_active);
        metrics.availabilityWeightedEntitlementMape =
            100.0 * mape_avail / static_cast<double>(ever_active);
    }

    metrics.jobsQueuedAtHorizon =
        static_cast<int>(s.waitQueue.size());
    if (metrics.jobsArrived > 0) {
        metrics.sheddingRate =
            static_cast<double>(metrics.jobsShed) /
            static_cast<double>(metrics.jobsArrived);
    }
    if (!s.jobs.empty()) {
        metrics.meanQueueDelaySeconds =
            s.queueDelaySum / static_cast<double>(s.jobs.size());
    }

    {
        auto &reg = obs::metrics();
        reg.counter("online.runs").add();
        reg.counter("online.epochs")
            .add(static_cast<std::uint64_t>(s.epoch));
        reg.counter("online.jobs_arrived")
            .add(static_cast<std::uint64_t>(metrics.jobsArrived));
        reg.counter("online.jobs_completed")
            .add(static_cast<std::uint64_t>(metrics.jobsCompleted));
        reg.counter("online.jobs_shed")
            .add(static_cast<std::uint64_t>(metrics.jobsShed));
        reg.counter("online.crash_events")
            .add(static_cast<std::uint64_t>(metrics.crashEvents));
    }
    if (auto *sink = obs::traceSink()) {
        obs::TraceEvent(*sink, "run_end")
            .field("policy", metrics.policyName)
            .field("jobs_arrived", metrics.jobsArrived)
            .field("jobs_completed", metrics.jobsCompleted)
            .field("jobs_shed", metrics.jobsShed)
            .field("non_converged_epochs", metrics.nonConvergedEpochs)
            .field("deadline_expired_epochs",
                   metrics.deadlineExpiredEpochs);
        // A flush failure latches into sink->status(); the CLI
        // surfaces it at exit, where the destination path is known.
        (void)sink->flush();
    }
    metrics.metricsSnapshot = obs::metrics().snapshot();

    metrics.jobs = s.jobs;
    return metrics;
}

OnlineMetrics
OnlineSimulator::run(const alloc::AllocationPolicy &policy,
                     FractionSource source)
{
    OnlineRunState state = initState(policy);
    emitRunStart(opts_, state.metrics.policyName);

    const int epochs = epochCount();
    const robustness::FaultInjector injector(
        opts_.faults, static_cast<std::size_t>(opts_.servers), epochs);
    while (state.epoch < epochs)
        runEpoch(state, policy, source, injector);
    return finalize(state);
}

Result<OnlineMetrics>
OnlineSimulator::runDurable(const alloc::AllocationPolicy &policy,
                            FractionSource source,
                            durability::DurableStateStore &store,
                            const durability::RecoveredState *resume)
{
    const int epochs = epochCount();

    OnlineRunState state;
    // Constructed only after run_start is emitted (fresh) or under
    // trace suppression (resume): building the schedule emits
    // fault_schedule events, which must land exactly where an
    // uninterrupted run puts them.
    std::optional<robustness::FaultInjector> injector;
    bool completed_on_disk = false;
    int replayed = 0;
    std::uint64_t frontier = 0;
    // Record bytes of the job segment the resumed snapshot names.
    std::uint64_t segment_bytes = 0;
    const bool resuming =
        resume != nullptr &&
        (resume->hasSnapshot || !resume->entries.empty());

    if (resuming) {
        frontier = resume->frontierEpoch();
        if (resume->hasSnapshot) {
            auto envelope = durability::decodeSnapshotEnvelope(
                resume->snapshotPayload);
            if (!envelope.ok())
                return envelope.status();
            completed_on_disk = envelope.value().completed;
            auto decoded =
                decodeOnlineState(envelope.value().state, resume->segment,
                                  opts_, policy.name());
            if (!decoded.ok())
                return decoded.status();
            state = decoded.take();
            segment_bytes = kJobBytes * state.frozenJobs;
        } else {
            // Crash before the first snapshot: replay from epoch 0.
            state = initState(policy);
        }

        // Re-execute the journaled epochs with trace emission
        // suppressed (their events are already durable in the trace
        // file), proving each one reproduces exactly what the crashed
        // process committed. Determinism is the redo log; the digest
        // is its proof obligation.
        obs::TraceSink *saved = obs::setTraceSink(nullptr);
        injector.emplace(opts_.faults,
                         static_cast<std::size_t>(opts_.servers),
                         epochs);
        for (const durability::JournalEntry &entry : resume->entries) {
            if (entry.epoch !=
                static_cast<std::uint64_t>(state.epoch) + 1) {
                obs::setTraceSink(saved);
                return Status::error(
                    ErrorKind::SemanticError, 0,
                    "journal entry for epoch ", entry.epoch,
                    " does not continue the snapshot state at epoch ",
                    state.epoch);
            }
            runEpoch(state, policy, source, *injector);
            const std::uint32_t digest = onlineStateDigest(state, opts_);
            if (digest != entry.eventCrc) {
                obs::setTraceSink(saved);
                return Status::error(
                    ErrorKind::SemanticError, 0,
                    "replay divergence at epoch ", entry.epoch,
                    ": journaled state digest ", entry.eventCrc,
                    ", replay produced ", digest,
                    " (option, version, or determinism skew)");
            }
            ++replayed;
        }
        obs::setTraceSink(saved);
        if (Status st = store.beginResume(*resume, segment_bytes);
            !st.isOk())
            return st;
    } else {
        state = initState(policy);
        if (Status st = store.beginFresh(); !st.isOk())
            return st;
        emitRunStart(opts_, state.metrics.policyName);
        injector.emplace(opts_.faults,
                         static_cast<std::size_t>(opts_.servers),
                         epochs);
    }

    while (state.epoch < epochs) {
        runEpoch(state, policy, source, *injector);

        // WAL rule: the trace bytes an entry claims as durable must be
        // in the file before the entry itself commits.
        auto *sink = obs::traceSink();
        if (sink)
            (void)sink->flush();

        durability::JournalEntry entry;
        entry.epoch = static_cast<std::uint64_t>(state.epoch);
        entry.eventCrc = onlineStateDigest(state, opts_);
        entry.traceBytes = sink ? sink->bytesWritten() : 0;
        entry.traceSeq = sink ? sink->currentSeq() : 0;
        durability::OnlineSnapshotEnvelope env;
        env.traceBytes = entry.traceBytes;
        env.traceSeq = entry.traceSeq;
        // The store calls this only on a snapshot epoch, after the
        // journal entry is written and the job records frozen since
        // the last snapshot are appended to the segment. The state
        // streams to disk in chunks, and the entry's digest is its
        // CRC.
        if (Status st = store.commitEpoch(
                entry,
                [&] {
                    return durability::streamSnapshotEnvelope(
                        env, onlineStatePayload(state, opts_,
                                                entry.eventCrc));
                },
                onlineJobSegment(state));
            !st.isOk())
            return st;
    }

    // A run that already finished on disk has its run_end event in the
    // durable trace; recompute the aggregates without emitting it
    // twice.
    OnlineMetrics metrics;
    if (completed_on_disk) {
        obs::TraceSink *saved = obs::setTraceSink(nullptr);
        metrics = finalize(state);
        obs::setTraceSink(saved);
    } else {
        metrics = finalize(state);
    }

    auto *sink = obs::traceSink();
    if (sink)
        (void)sink->flush();
    durability::OnlineSnapshotEnvelope final_env;
    final_env.completed = true;
    final_env.traceBytes = sink ? sink->bytesWritten() : 0;
    final_env.traceSeq = sink ? sink->currentSeq() : 0;
    if (Status st = store.finishRun(
            static_cast<std::uint64_t>(epochs),
            [&] {
                return durability::streamSnapshotEnvelope(
                    final_env,
                    onlineStatePayload(state, opts_,
                                       onlineStateDigest(state, opts_)));
            },
            onlineJobSegment(state));
        !st.isOk())
        return st;

    const durability::DurabilityCounters &counters = store.counters();
    metrics.recovered = resuming;
    metrics.recoveryReplayedEpochs = replayed;
    metrics.recoveryFrontierEpoch = frontier;
    metrics.journalCommits = counters.journalAppends;
    metrics.snapshotsWritten = counters.snapshotsWritten;
    metrics.ioRetries = counters.ioRetries;
    metrics.ioInjectedFaults = counters.injectedFaults;
    {
        auto &reg = obs::metrics();
        reg.counter("durability.journal_commits")
            .add(counters.journalAppends);
        reg.counter("durability.snapshots_written")
            .add(counters.snapshotsWritten);
        reg.counter("durability.io_retries").add(counters.ioRetries);
        reg.counter("durability.io_injected_faults")
            .add(counters.injectedFaults);
        reg.counter("durability.replayed_epochs")
            .add(static_cast<std::uint64_t>(replayed));
        if (resuming)
            reg.counter("durability.recoveries").add();
    }
    metrics.metricsSnapshot = obs::metrics().snapshot();
    return metrics;
}

} // namespace amdahl::eval
