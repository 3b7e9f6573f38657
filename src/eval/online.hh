/**
 * @file
 * Online (epoch-based) market operation.
 *
 * The paper evaluates one-shot allocations; a deployed scheduler runs
 * the market *continuously*: jobs arrive, the market re-clears each
 * epoch over the jobs currently in the system, jobs make progress at
 * their measured speedups, finish, and release cores. This module
 * simulates that closed loop so allocation policies can be compared on
 * completion-time metrics rather than instantaneous progress — the
 * natural "future work" extension of Section VI, built entirely from
 * the paper's own pieces (characterized workloads, the market, and
 * Hamilton rounding).
 *
 * Progress model: a job holding x cores for an epoch of E seconds
 * completes s(x) * E single-core-seconds of its remaining work, where
 * s is the workload's *measured* (simulated) speedup at the full
 * dataset. Jobs are pinned to their arrival server, as in the paper.
 */

#ifndef AMDAHL_EVAL_ONLINE_HH
#define AMDAHL_EVAL_ONLINE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "alloc/placement.hh"
#include "alloc/policy.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "eval/characterization.hh"
#include "net/options.hh"
#include "net/session.hh"
#include "obs/metrics.hh"
#include "robustness/durability/durable_store.hh"
#include "robustness/fault_injector.hh"

namespace amdahl::core {
struct KernelCache; // core/bidding_kernel.hh
}

namespace amdahl::eval {

/** One job flowing through the online system. */
struct OnlineJob
{
    /** Sentinel server index: the job is waiting for a live server
     *  (only reachable when a fault schedule kills the whole
     *  cluster). */
    static constexpr std::size_t kUnplaced =
        static_cast<std::size_t>(-1);

    std::size_t user = 0;
    std::size_t server = 0;
    std::size_t workloadIndex = 0;
    double arrivalSeconds = 0.0;
    double totalWork = 0.0;     //!< Single-core seconds at admission.
    double remainingWork = 0.0; //!< Single-core seconds left.
    double completionSeconds = -1.0; //!< < 0 while in the system.

    /** Progress durably saved as of the last checkpoint; a crash
     *  rolls remainingWork back to totalWork - checkpointedWork. */
    double checkpointedWork = 0.0;

    /** Epochs of progress since the last checkpoint. */
    int epochsSinceCheckpoint = 0;

    /** @return true once the job has finished. */
    bool done() const { return completionSeconds >= 0.0; }

    /** @return true while the job waits for a live server. */
    bool unplaced() const { return server == kUnplaced; }
};

/**
 * Overload admission control (disabled by default).
 *
 * An open arrival process has no intrinsic load limit: past some
 * arrival rate the in-system job count grows without bound, every
 * tenant's per-job grant shrinks toward zero, and completion times
 * explode — the market clears every epoch yet serves nobody. With
 * admission control on, the simulator caps the number of admitted
 * in-flight jobs at `maxLoadFactor` per live server; arrivals beyond
 * the cap wait in a bounded FIFO queue (backpressure) and, when the
 * queue is full, one job is shed by entitlement class: the earliest
 * queued job of the lowest-budget tenant, so the cheapest tenant's
 * work is sacrificed first and a high-budget tenant's arrival is never
 * turned away while a lower class waits.
 *
 * Arrival generation itself never changes: the same seed draws the
 * same job stream whether admission control is on or off (and across
 * load factors), so overload sweeps compare policies on identical
 * demand.
 */
struct AdmissionOptions
{
    bool enabled = false;

    /** Cap on admitted in-flight jobs, per live server. */
    double maxLoadFactor = 6.0;

    /** Bound on the wait queue; 0 sheds every over-cap arrival
     *  immediately. */
    int maxQueueLength = 64;
};

/**
 * Incremental (delta) re-clearing across epochs.
 *
 * Successive epochs clear nearly-identical markets: the tenant
 * population is fixed, and most jobs survive from one epoch to the
 * next. Two knobs act on that; neither touches the equilibrium
 * contract (the solver's invariants, convergence test, and audit are
 * unchanged — only the CSR build cost and the starting point move):
 *
 *  - `reuseKernel` keeps the solver's CSR kernel alive across epochs
 *    in OnlineRunState and patches only the rows whose users changed,
 *    instead of rebuilding the whole structure. Structure or value
 *    mismatches are detected by exact comparison (never hashing), so
 *    a reused kernel is byte-for-byte the kernel a cold build would
 *    produce.
 *  - `warmStartBids` seeds every epoch's bids from the analytic
 *    mean-field estimate of that epoch's market
 *    (core::meanFieldSeedBids, passed as ClearingContext::initialBids).
 *    The seed depends on the market alone, never on earlier epochs,
 *    so it adds nothing to the run state.
 *
 * Disabled by default, in which case the run is bit-identical to a
 * build without the feature.
 */
struct DeltaClearingOptions
{
    /** Keep (and patch) the bid kernel across epochs. */
    bool reuseKernel = false;

    /** Seed each epoch's bids from core::meanFieldSeedBids. */
    bool warmStartBids = false;
};

/** Scenario knobs. */
struct OnlineOptions
{
    std::uint64_t seed = 0x0517e5ULL;
    int users = 16;             //!< Fixed tenant population.
    int servers = 8;
    int coresPerServer = 24;

    /**
     * Heterogeneous clusters: per-server core counts (must have
     * `servers` entries when non-empty). Prices encode capacity —
     * this is where price-aware placement outruns load counting.
     */
    std::vector<int> serverCores;
    double epochSeconds = 60.0;  //!< Market re-clearing period.
    double horizonSeconds = 3600.0;
    /** Expected job arrivals per server per epoch (Bernoulli thinned
     *  across epochs; deterministic given the seed). */
    double arrivalsPerServerEpoch = 0.4;
    /** Arriving jobs carry between work * [min, max] of their
     *  workload's full-dataset single-core time. */
    double workScaleMin = 0.1;
    double workScaleMax = 0.5;

    /**
     * Where arriving jobs are placed. PriceAware steers arrivals to
     * the cheapest server by the last equilibrium's prices (a
     * congestion signal per Eq. 8); when the allocation policy
     * publishes no prices (PS, G, UB), current loads stand in.
     */
    alloc::PlacementRule placement = alloc::PlacementRule::RoundRobin;

    /**
     * Long-term fairness: entitlements are instantaneous in the
     * paper, but epoch-based operation can starve a tenant who was
     * unlucky in *which* epochs her jobs ran. With compensation on,
     * each epoch a tenant's effective budget is scaled by the ratio
     * of her cumulative entitled core-seconds to her cumulative
     * granted core-seconds (clamped to [1, 3]), so
     * under-served tenants bid with extra weight until they catch
     * up — deficit round-robin's idea expressed in market terms.
     */
    bool deficitCompensation = false;

    /**
     * Fault schedule (robustness/fault_injector.hh): server churn
     * and bid-message loss. Disabled by default; when disabled the
     * run is bit-identical to fault-free operation (the schedule draws
     * from its own seed, so the arrival stream never shifts either
     * way).
     */
    robustness::FaultOptions faults;

    /** Overload admission control; disabled by default, in which case
     *  the run is bit-identical to a build without the feature. */
    AdmissionOptions admission;

    /**
     * Sharded clearing over the simulated network (src/net/):
     * `net.shards > 0` routes every epoch's clearing through the
     * epoch-barrier protocol of core/bidding_sharded.cc, with the
     * cross-epoch transport state persisted in OnlineRunState. With
     * all fault rates zero and no partitions, any shard count is
     * byte-identical to in-process clearing (the determinism bridge);
     * shards = 0 (the default) disables the network entirely.
     */
    net::ShardedOptions net;

    /** Incremental re-clearing across epochs; disabled by default, in
     *  which case the run is bit-identical to a build without the
     *  feature. */
    DeltaClearingOptions delta;
};

/** Aggregate outcome of one online run. */
struct OnlineMetrics
{
    std::string policyName;
    int jobsArrived = 0;
    int jobsCompleted = 0;
    double workCompleted = 0.0;      //!< Single-core seconds.
    double meanCompletionSeconds = 0.0;  //!< Over completed jobs.
    double p95CompletionSeconds = 0.0;
    double meanJobsInSystem = 0.0;   //!< Time-averaged occupancy.
    double meanWeightedSpeedup = 0.0; //!< Mean per-epoch SysProgress.

    /**
     * Long-run fairness: MAPE of cumulative granted core-seconds
     * against cumulative entitled core-seconds, over tenants that
     * were ever active.
     */
    double longRunEntitlementMape = 0.0;

    /**
     * Like longRunEntitlementMape, but each epoch's entitlement
     * accrues against the *live* cluster capacity — what a tenant
     * could fairly expect given the servers actually up that epoch.
     * Equals entitlement against full capacity when nothing crashes.
     */
    double availabilityWeightedEntitlementMape = 0.0;

    // --- Resilience accounting (all zero in fault-free runs). ---

    /** Epochs where the primary bidding procedure failed to converge
     *  (whether or not a fallback then served the epoch). */
    int nonConvergedEpochs = 0;

    /** Epochs served by the damped, warm-started retry. */
    int fallbackEpochsDamped = 0;

    /** Epochs served by proportional share after both market attempts
     *  failed. */
    int fallbackEpochsProportional = 0;

    /** Epochs served by the best anytime bid state after a clearing
     *  deadline expired (ServeMode::DeadlineAnytime). */
    int fallbackEpochsDeadline = 0;

    /** Epochs whose clearing hit its anytime deadline (counted from
     *  MarketOutcome::deadlineExpired, whichever rung served). */
    int deadlineExpiredEpochs = 0;

    // --- Network accounting (all zero unless sharded clearing ran
    //     over a faulty simulated network). ---

    /** Clearing rounds served on partial quorum (stale aggregates). */
    std::uint64_t netDegradedRounds = 0;

    /** Shard-rounds served from a stale bid aggregate. */
    std::uint64_t netStaleBidRounds = 0;

    /** Bid-aggregate retransmissions across all clearings. */
    std::uint64_t netRetransmits = 0;

    /** Clearings aborted below the quorum floor (then escalated down
     *  the fallback ladder). */
    std::uint64_t netQuorumCollapses = 0;

    // --- Overload accounting (all zero with admission control off). ---

    /** Arrivals that ever waited in the admission queue. */
    int jobsQueued = 0;

    /** Arrivals shed because the admission queue was full. */
    int jobsShed = 0;

    /** Arrivals still waiting in the queue when the horizon ended. */
    int jobsQueuedAtHorizon = 0;

    /** jobsShed / jobsArrived. */
    double sheddingRate = 0.0;

    /** Mean admission-queue wait over admitted jobs (zero for jobs
     *  admitted on arrival). */
    double meanQueueDelaySeconds = 0.0;

    /** Largest queue length observed (after shedding). */
    int peakQueueLength = 0;

    /** Server crash events that occurred within the horizon. */
    int crashEvents = 0;

    /** Jobs moved to another server after a crash (including jobs
     *  parked during a total outage and placed on recovery). */
    int replacements = 0;

    /** Single-core seconds of completed progress rolled back to the
     *  last checkpoint by crashes. */
    double workLostSeconds = 0.0;

    // --- Durability accounting (all zero for non-durable runs and
    //     excluded from encoded snapshot state, so a recovered run's
    //     final snapshot is byte-identical to an uninterrupted one). ---

    /** true when this run resumed from on-disk durable state. */
    bool recovered = false;

    /** Journaled epochs re-executed (and digest-verified) on resume. */
    int recoveryReplayedEpochs = 0;

    /** Durable epoch frontier found at restart (0 = fresh start). */
    std::uint64_t recoveryFrontierEpoch = 0;

    /** Epoch commits journaled by this process. */
    std::uint64_t journalCommits = 0;

    /** Full snapshots written by this process. */
    std::uint64_t snapshotsWritten = 0;

    /** Durable-IO retries after injected transient faults. */
    std::uint64_t ioRetries = 0;

    /** Transient IO faults injected into this process's writes. */
    std::uint64_t ioInjectedFaults = 0;

    /** Per-epoch jobs in the system (time series). */
    std::vector<double> occupancyHistory;

    /** Per-epoch entitlement-weighted speedup (time series; zero on
     *  idle epochs). */
    std::vector<double> speedupHistory;

    /** The full job log (completed and still-running). */
    std::vector<OnlineJob> jobs;

    /**
     * Snapshot of the process-wide metrics registry taken as the run
     * ended (obs/metrics.hh): bidding iteration counts, fallback
     * serves, phase-timing histograms when timing was enabled, and so
     * on. Cumulative across runs in the same process — diff two
     * snapshots to attribute counts to one run. Embedded in the bench
     * JSON export so collected artifacts carry their own telemetry.
     */
    obs::MetricsSnapshot metricsSnapshot;
};

/**
 * The complete mutable state of an online run between two epochs.
 *
 * Everything the epoch loop reads or writes lives here — the RNG, the
 * job log, the admission queue, the placer, the speedup accumulator,
 * and the partial metrics counters — and runEpoch works on them in
 * place. Two properties the durability layer relies on:
 *
 *  - runEpoch(state) is a pure function of (state, options, policy):
 *    advancing a restored state replays exactly the epochs the
 *    original process ran (determinism is the redo log);
 *  - encodeOnlineState() is a pure function of this struct, so the
 *    per-epoch CRC digest and snapshot bytes are identical across the
 *    original run, a recovery replay, and the equivalence oracle.
 *
 * The encoding stores only what it cannot derive. decodeOnlineState()
 * derives the rest, so a snapshot cannot disagree with it: `budgets`
 * from the seed, `metrics.policyName` from its caller, and from the
 * job log the placer's loads (the not-done jobs placed on each
 * server), `metrics.jobsCompleted` (the done jobs) and
 * `metrics.jobsArrived` (jobs logged, queued or shed). The mean
 * occupancy is folded from `metrics.occupancyHistory` by finalize().
 *
 * `metrics.jobs` and `metrics.metricsSnapshot` stay empty until
 * finalize(); recovery counters on OnlineMetrics are excluded from the
 * encoding (they describe the *process*, not the simulation).
 */
struct OnlineRunState
{
    /** Next epoch index to run (== completed epoch count). */
    int epoch = 0;
    Rng rng;
    std::vector<double> budgets;
    /** Every admitted job; those not done() are in flight, so the
     *  in-flight count is jobs.size() - metrics.jobsCompleted. */
    std::vector<OnlineJob> jobs;
    std::deque<OnlineJob> waitQueue;
    double queueDelaySum = 0.0;
    /** Also the one record of which servers are live. */
    alloc::JobPlacer placer;
    OnlineStats weightedSpeedup;
    std::vector<double> granted;
    std::vector<double> entitled;
    std::vector<double> entitledAvail;
    /** Cross-epoch simulated-transport state (virtual clock, global
     *  round, per-edge sequence numbers); all zero/empty unless
     *  OnlineOptions::net enables sharded clearing. Persisted so a
     *  crash mid-partition recovers onto the same network timeline. */
    net::NetSession net;
    /**
     * Cross-epoch bid-kernel cache (DeltaClearingOptions::reuseKernel).
     * Deliberately *not* serialized: a cached kernel is bitwise
     * invisible (exact compare-and-patch reproduces the cold build
     * byte for byte), so a recovered run simply rebuilds it on first
     * use and stays on the original's trajectory. It is the only
     * solver state carried across epochs: the mean-field bid seed
     * (DeltaClearingOptions::warmStartBids) is recomputed from each
     * epoch's market.
     */
    std::shared_ptr<core::KernelCache> kernelCache;
    /** Partial accumulators; aggregates are computed by finalize(). */
    OnlineMetrics metrics;
    /**
     * The frozen-prefix cursor: every job before `frozenJobs` is
     * done(), and a done job's record never changes again, so
     * per-epoch job scans start here. `frozenJobsCrc` is the CRC-32 of
     * those records' encoding. runEpoch advances both as it ends, to
     * the longest done prefix of the job log, so the cursor is a pure
     * function of the log. The encoding stores the pair in place of
     * the records, which go once to the job segment
     * (onlineJobSegment), and decodeOnlineState restores it.
     */
    std::size_t frozenJobs = 0;
    std::uint32_t frozenJobsCrc = 0;
};

/**
 * @return CRC fingerprint of the scenario a state was produced under:
 * every OnlineOptions knob plus the policy name. Snapshots embed it so
 * recovery rejects state from a different configuration instead of
 * replaying it into divergence.
 */
std::uint32_t onlineStateFingerprint(const OnlineOptions &opts,
                                     std::string_view policyName);

/**
 * Serialize a run state to portable bytes (common/bytes.hh
 * framing: little-endian fixed-width fields, length-prefixed
 * containers). The records of the frozen job prefix are not among
 * them: the bytes hold its length and CRC, and the records themselves
 * live in the job segment (onlineJobSegment). Pure function of
 * (@p state, @p opts) — the recovery oracle compares these bytes
 * directly.
 */
std::string encodeOnlineState(const OnlineRunState &state,
                              const OnlineOptions &opts);

/**
 * The job segment a snapshot of @p state names: the records of the
 * frozen prefix, 72 bytes each, as encodeOnlineState writes a job.
 * `emit(from, sink)` hands over the records from byte @p from (a
 * whole number of records) to the end of the prefix, kStateChunkJobs
 * at a time. The records are read when emitted, so @p state must
 * outlive the result, unchanged.
 */
durability::SegmentRecords onlineJobSegment(const OnlineRunState &state);

/** Job records per piece of a streamed state (a 288 KiB buffer). */
inline constexpr std::size_t kStateChunkJobs = 4096;

/**
 * encodeOnlineState(@p state, @p opts) as a streamed snapshot payload:
 * the fields before the job log, then the unfrozen job records
 * kStateChunkJobs at a time through one reused buffer, then the
 * fields after the log, so no piece grows with the live state.
 * encodeOnlineState is this stream appended to one string. @p digest
 * is declared as the payload's CRC and must be
 * onlineStateDigest(@p state, @p opts); checked builds verify it when
 * the payload is written. The job records are read when emitted, so
 * @p state must outlive the payload, unchanged.
 */
durability::SnapshotPayload onlineStatePayload(const OnlineRunState &state,
                                               const OnlineOptions &opts,
                                               std::uint32_t digest);

/**
 * @return crc32(encodeOnlineState(@p state, @p opts)), the journal's
 * per-epoch state digest. The encoding carries the frozen prefix's
 * CRC, so the digest covers the whole job log while it reads only the
 * live suffix: linear in the live state, not in the run's history.
 */
std::uint32_t onlineStateDigest(const OnlineRunState &state,
                                const OnlineOptions &opts);

/**
 * Deserialize a run state from its encoding and the records of the
 * job segment it names.
 *
 * @param segment The segment's record bytes; those beyond the frozen
 *                prefix @p payload names are ignored.
 * @return ParseError on malformed bytes, or a segment shorter than the
 * frozen prefix or whose prefix has another CRC; SemanticError on a
 * version or fingerprint mismatch (the state was written by a
 * different build or scenario), internally inconsistent sizes, a
 * frozen prefix that is not the log's longest done prefix, or a job
 * naming a user, server or workload outside the scenario.
 */
Result<OnlineRunState> decodeOnlineState(std::string_view payload,
                                         std::string_view segment,
                                         const OnlineOptions &opts,
                                         std::string_view policyName);

/**
 * Epoch-driven online market simulator.
 *
 * Deterministic: the arrival process and workload draws depend only on
 * the options' seed, so different policies face the *identical* job
 * stream.
 */
class OnlineSimulator
{
  public:
    /**
     * @param cache Workload characterizations (shared; must outlive
     *              the simulator).
     * @param opts  Scenario parameters.
     */
    OnlineSimulator(CharacterizationCache &cache, OnlineOptions opts);

    /** @return The scenario options. */
    const OnlineOptions &options() const { return opts_; }

    /**
     * Run the scenario under an allocation policy.
     *
     * Each epoch: admit arrivals, build the market over in-flight
     * jobs (servers or users without jobs are excluded; their cores
     * idle), allocate, advance every job by its measured speedup, and
     * retire completions.
     *
     * @param policy Allocation mechanism (AB, PS, ...).
     * @param source Parallel-fraction source for the market's
     *               utilities (Estimated for market policies).
     */
    OnlineMetrics run(const alloc::AllocationPolicy &policy,
                      FractionSource source);

    /**
     * Run the scenario with crash-consistent persistence.
     *
     * Fresh start (@p resume null or empty): discards stale durable
     * state, then runs epoch by epoch; after each epoch the trace sink
     * is flushed and the epoch is committed to @p store (journal
     * append carrying the state digest and trace frontier, full
     * snapshot on the configured cadence). A process killed at *any*
     * point can be restarted with the RecoveredState from
     * store.recover(): the last good snapshot is decoded, the
     * journaled epochs are re-executed with trace emission suppressed
     * — each replayed epoch's state digest must match the journal, or
     * the resume is refused with a SemanticError ("replay divergence":
     * version skew, option skew, or a nondeterminism bug) — and the
     * run continues live from the durable frontier.
     *
     * The caller owns the trace file: before installing the sink on a
     * resume, truncate it to the envelope/entry trace frontier and
     * call TraceSink::resume() (see tools/amdahl_market.cc), which
     * makes the recovered trace byte-identical to an uninterrupted
     * run's.
     *
     * @return The run metrics (recovery counters filled in), or the
     * Status of the first unrecoverable durability failure (IO retries
     * exhausted, undecodable snapshot, replay divergence).
     */
    Result<OnlineMetrics>
    runDurable(const alloc::AllocationPolicy &policy,
               FractionSource source,
               durability::DurableStateStore &store,
               const durability::RecoveredState *resume = nullptr);

    /** @return Epochs in the horizon (ceil(horizon / epoch)). */
    int epochCount() const;

    /**
     * Seed the RNG, draw tenant budgets, and size every container —
     * the state a run starts from before epoch 0. Exposed (with
     * runEpoch/finalize) so recovery tests can drive the loop
     * directly.
     */
    OnlineRunState
    initState(const alloc::AllocationPolicy &policy) const;

    /**
     * Advance @p state by one epoch: admit arrivals, clear the market
     * over in-flight jobs, advance progress, retire completions, and
     * apply this epoch's fault schedule. @p injector must be built
     * from options().faults over epochCount() epochs (it is pure, so
     * every process constructs the identical schedule).
     */
    void runEpoch(OnlineRunState &state,
                  const alloc::AllocationPolicy &policy,
                  FractionSource source,
                  const robustness::FaultInjector &injector) const;

    /**
     * Compute the aggregate metrics of a finished (or mid-horizon)
     * state: completion statistics, fairness MAPEs, queue stats, the
     * registry counters, and the run_end trace event. Does not mutate
     * @p state.
     */
    OnlineMetrics finalize(const OnlineRunState &state) const;

  private:
    CharacterizationCache &cache_;
    OnlineOptions opts_;
};

} // namespace amdahl::eval

#endif // AMDAHL_EVAL_ONLINE_HH
