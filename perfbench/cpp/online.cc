/**
 * @file
 * The online workloads: OnlineSimulator under FallbackPolicy, one
 * closed-loop client driving whole runs back to back.
 *
 *  - online-durable: runDurable with delta clearing on (reuseKernel,
 *    warmStartBids), 10^4 tenants, 500 servers, 1 thread; every epoch
 *    ends in a journal commit, every 8th in a snapshot.
 *  - online-sharded: run with sharded clearing over the simulated
 *    network (4 shards, 1% bid loss, 1-3 tick delay, no partitions),
 *    2000 tenants, 100 servers, 1 thread.
 *
 * Epoch wall time is measured from outside by a forwarding decorator
 * around the policy: one epoch is the interval between successive
 * allocate() entries, the last one closing when the run returns.
 */

#include <filesystem>
#include <optional>

#include "alloc/fallback_policy.hh"
#include "common/crc32.hh"
#include "common/stats.hh"
#include "eval/characterization.hh"
#include "eval/online.hh"
#include "exec/parallelism.hh"
#include "robustness/durability/durable_store.hh"
#include "robustness/durability/posix_io.hh"
#include "robustness/durability/snapshot.hh"
#include "robustness/fault_injector.hh"
#include "sim/workload_library.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace amdahl;

/** Set-ups before each whole run. One takes ~15 ms; other load on the
 *  host preempts it at times, so the reps are spread over every run's
 *  start rather than taken in one window at process start. */
constexpr int kSetupRepsPerRun = 67;
/** Seconds one whole run takes on the machine the benchmark was sized
 *  on (README.md); a run makes --seconds / this many. */
constexpr double kNominalDurableRunSeconds = 10.9;
constexpr double kNominalShardedRunSeconds = 16.1;

/** What the decorator saw, one entry per allocate() call. */
struct EpochLog
{
    std::vector<double> entries;      //!< nowSeconds() at entry.
    std::vector<double> allocSeconds; //!< Time inside allocate().
    std::vector<char> failed;         //!< Non-primary or non-converged.
    int nonPrimary = 0;
    /** When set, each allocate() is recorded as a span under parent. */
    Spans *spans = nullptr;
    std::size_t parent = 0;
};

/**
 * Forwarding decorator: overrides all three allocate() overloads and
 * keeps the inner policy's name, so the online state fingerprint (and
 * hence every snapshot byte) is that of the undecorated policy.
 */
class TimedPolicy final : public alloc::AllocationPolicy
{
  public:
    TimedPolicy(const alloc::AllocationPolicy &inner, EpochLog &log)
        : inner_(inner), log_(log)
    {}

    std::string name() const override { return inner_.name(); }

    alloc::AllocationResult
    allocate(const core::FisherMarket &market) const override
    {
        return timed([&] { return inner_.allocate(market); });
    }

    alloc::AllocationResult
    allocate(const core::FisherMarket &market,
             const core::BidTransportFaults &faults) const override
    {
        return timed([&] { return inner_.allocate(market, faults); });
    }

    alloc::AllocationResult
    allocate(const core::FisherMarket &market,
             const core::ClearingContext &ctx) const override
    {
        return timed([&] { return inner_.allocate(market, ctx); });
    }

  private:
    template <typename Call>
    alloc::AllocationResult
    timed(Call &&call) const
    {
        const double t0 = nowSeconds();
        log_.entries.push_back(t0);
        const std::size_t span =
            log_.spans ? log_.spans->begin("alloc.allocate", log_.parent)
                       : 0;
        alloc::AllocationResult result = call();
        if (span != 0)
            log_.spans->end(span);
        log_.allocSeconds.push_back(nowSeconds() - t0);

        const bool primary = result.mode == alloc::ServeMode::Primary;
        const bool collapsed = result.outcome.net.quorumCollapsed;
        const bool converged = result.outcome.iterations == 0 ||
                               result.outcome.converged;
        log_.nonPrimary += primary ? 0 : 1;
        log_.failed.push_back(!primary || collapsed || !converged);
        return result;
    }

    const alloc::AllocationPolicy &inner_;
    EpochLog &log_;
};

bool
isDurable(const RunOptions &opts)
{
    return opts.workload == "online-durable";
}

/** The scenario of one variant: each whole run of a benchmark run
 *  draws its arrivals (and network faults) from its own derived seed,
 *  so one scenario's difficulty does not decide the run's figures. */
eval::OnlineOptions
scenario(const RunOptions &opts, unsigned variant)
{
    eval::OnlineOptions o;
    o.seed = deriveSeed(opts.seed, 2 + 100 * variant);
    o.arrivalsPerServerEpoch = 2.0;
    int epochs = 200;
    if (isDurable(opts)) {
        o.users = opts.smoke ? 200 : 10'000;
        o.servers = opts.smoke ? 10 : 500;
        o.delta.reuseKernel = true;
        o.delta.warmStartBids = true;
    } else {
        o.users = opts.smoke ? 100 : 2000;
        o.servers = opts.smoke ? 8 : 100;
        o.net.shards = 4;
        o.net.faults.lossRate = 0.01;
        o.net.faults.delayMin = 1;
        o.net.faults.delayMax = 3;
        o.net.faults.seed = deriveSeed(opts.seed, 3 + 100 * variant);
    }
    if (opts.smoke)
        epochs = 20;
    o.horizonSeconds = o.epochSeconds * epochs;
    return o;
}

/** Characterize every library workload at every core count a server
 *  can grant, so no epoch pays for a cache miss. */
void
warmCache(eval::CharacterizationCache &cache, int cores)
{
    const std::size_t n = sim::workloadLibrary().size();
    for (std::size_t i = 0; i < n; ++i) {
        (void)cache.of(i);
        for (int c = 1; c <= cores; ++c)
            (void)cache.fullDatasetSeconds(i, c);
    }
}

/** Open a store (default options) on an emptied @p dir. */
Result<durability::DurableStateStore>
openFreshStore(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    durability::DurabilityOptions d;
    d.stateDir = dir;
    return durability::DurableStateStore::open(d);
}

template <typename T>
std::uint32_t
mix(std::uint32_t crc, const T &v)
{
    return crc32Update(crc, &v, sizeof v);
}

/** CRC over the simulation's outcome: aggregates, time series and the
 *  full job log (process-level counters excluded). */
std::uint32_t
metricsDigest(const eval::OnlineMetrics &m)
{
    std::uint32_t crc = 0;
    crc = mix(crc, m.jobsArrived);
    crc = mix(crc, m.jobsCompleted);
    crc = mix(crc, m.workCompleted);
    crc = mix(crc, m.meanCompletionSeconds);
    crc = mix(crc, m.p95CompletionSeconds);
    crc = mix(crc, m.meanJobsInSystem);
    crc = mix(crc, m.meanWeightedSpeedup);
    crc = mix(crc, m.longRunEntitlementMape);
    crc = mix(crc, m.nonConvergedEpochs);
    crc = mix(crc, m.netDegradedRounds);
    crc = mix(crc, m.netStaleBidRounds);
    crc = mix(crc, m.netRetransmits);
    crc = mix(crc, m.netQuorumCollapses);
    for (double v : m.occupancyHistory)
        crc = mix(crc, v);
    for (double v : m.speedupHistory)
        crc = mix(crc, v);
    for (const auto &job : m.jobs) {
        crc = mix(crc, job.user);
        crc = mix(crc, job.server);
        crc = mix(crc, job.workloadIndex);
        crc = mix(crc, job.arrivalSeconds);
        crc = mix(crc, job.totalWork);
        crc = mix(crc, job.remainingWork);
        crc = mix(crc, job.completionSeconds);
    }
    return crc;
}

/** One run of the scenario, as seen from outside. */
struct OnlineRun
{
    bool ok = true;
    std::string status;
    double wall = 0.0;
    EpochLog log;
    std::vector<double> epochSeconds;
    int epochs = 0;
    int nonConvergedEpochs = 0; //!< As OnlineMetrics counts them.
    Counters counters;
    std::string metricsCrc;
    std::string snapshot; //!< Final snapshot file bytes (durable).
};

/** @return The final snapshot's bytes, or empty when unreadable. */
std::string
finalSnapshot(const std::string &dir, int epochs)
{
    const durability::SnapshotStore snapshots(dir, 2);
    auto bytes = durability::readFileBytes(
        snapshots.pathFor(static_cast<std::uint64_t>(epochs)));
    return bytes.ok() ? bytes.take() : std::string();
}

/** run()/runDurable() exactly as a user calls it, decorated. */
OnlineRun
runPlain(eval::CharacterizationCache &cache,
         const eval::OnlineOptions &scenario_opts, const std::string &dir)
{
    OnlineRun run;
    const alloc::FallbackPolicy inner;
    const TimedPolicy policy(inner, run.log);
    eval::OnlineSimulator sim(cache, scenario_opts);
    run.epochs = sim.epochCount();

    std::optional<durability::DurableStateStore> store;
    if (!dir.empty()) {
        auto opened = openFreshStore(dir);
        if (!opened.ok()) {
            run.ok = false;
            run.status = opened.status().toString();
            return run;
        }
        store.emplace(opened.take());
    }

    const Counters before = counterSnapshot();
    const double t0 = nowSeconds();
    eval::OnlineMetrics metrics;
    if (store) {
        auto result = sim.runDurable(policy, eval::FractionSource::Estimated,
                                     *store);
        if (result.ok()) {
            metrics = result.take();
        } else {
            run.ok = false;
            run.status = result.status().toString();
        }
    } else {
        metrics = sim.run(policy, eval::FractionSource::Estimated);
    }
    const double t1 = nowSeconds();
    run.wall = t1 - t0;
    run.counters = counterDelta(before, counterSnapshot());
    run.metricsCrc = hex32(metricsDigest(metrics));
    run.nonConvergedEpochs = metrics.nonConvergedEpochs;

    const auto &e = run.log.entries;
    for (std::size_t i = 0; i < e.size(); ++i)
        run.epochSeconds.push_back((i + 1 < e.size() ? e[i + 1] : t1) - e[i]);
    if (store)
        run.snapshot = finalSnapshot(dir, run.epochs);
    return run;
}

/** Per-phase timings of the traced loop. */
struct TracedRun
{
    bool ok = true;
    std::string status;
    double wall = 0.0;
    EpochLog log;
    eval::OnlineMetrics metrics;
    std::string snapshot;
    std::vector<double> encodeSeconds, commitSeconds;
    std::uint64_t stateBytesFinal = 0;
    durability::DurabilityCounters store;
};

/**
 * The same epochs driven through the public pieces runDurable/run are
 * made of — initState, runEpoch, encodeOnlineState + crc32,
 * DurableStateStore::commitEpoch, finalize, finishRun — so the split
 * between evaluation, encoding and commit is visible from outside.
 */
TracedRun
runTraced(eval::CharacterizationCache &cache,
          const eval::OnlineOptions &o, const std::string &dir,
          Spans &spans)
{
    TracedRun run;
    const alloc::FallbackPolicy inner;
    const TimedPolicy policy(inner, run.log);
    run.log.spans = &spans;
    const eval::OnlineSimulator sim(cache, o);
    const int epochs = sim.epochCount();
    const auto fail = [&](const Status &st) {
        run.ok = false;
        run.status = st.toString();
    };

    std::optional<durability::DurableStateStore> store;
    if (!dir.empty()) {
        auto opened = openFreshStore(dir);
        if (!opened.ok()) {
            fail(opened.status());
            return run;
        }
        store.emplace(opened.take());
    }

    const double t0 = nowSeconds();
    const std::size_t init = spans.begin("eval.init_state");
    eval::OnlineRunState state = sim.initState(policy);
    if (store) {
        if (Status st = store->beginFresh(); !st.isOk()) {
            fail(st);
            return run;
        }
    }
    const robustness::FaultInjector injector(
        o.faults, static_cast<std::size_t>(o.servers), epochs);
    spans.end(init);

    while (state.epoch < epochs) {
        const std::size_t root = spans.begin("bench.epoch");
        const std::size_t eval_span = spans.begin("eval.run_epoch", root);
        run.log.parent = eval_span;
        sim.runEpoch(state, policy, eval::FractionSource::Estimated,
                     injector);
        spans.end(eval_span);
        if (store) {
            double t = nowSeconds();
            std::size_t span = spans.begin("durability.encode", root);
            durability::JournalEntry entry;
            entry.epoch = static_cast<std::uint64_t>(state.epoch);
            const std::string encoded = eval::encodeOnlineState(state, o);
            entry.eventCrc = crc32(encoded);
            spans.end(span);
            run.encodeSeconds.push_back(nowSeconds() - t);

            t = nowSeconds();
            span = spans.begin("durability.commit", root);
            durability::OnlineSnapshotEnvelope env;
            const Status st = store->commitEpoch(entry, [&] {
                env.state = encoded;
                return durability::encodeSnapshotEnvelope(env);
            });
            spans.end(span);
            run.commitSeconds.push_back(nowSeconds() - t);
            if (!st.isOk()) {
                spans.end(root);
                fail(st);
                return run;
            }
        }
        spans.end(root);
    }

    std::size_t span = spans.begin("eval.finalize");
    run.metrics = sim.finalize(state);
    spans.end(span);
    if (store) {
        span = spans.begin("durability.finish");
        const Status st = store->finishRun(
            static_cast<std::uint64_t>(epochs), [&] {
                durability::OnlineSnapshotEnvelope env;
                env.completed = true;
                env.state = eval::encodeOnlineState(state, o);
                run.stateBytesFinal = env.state.size();
                return durability::encodeSnapshotEnvelope(env);
            });
        spans.end(span);
        if (!st.isOk()) {
            fail(st);
            return run;
        }
        run.store = store->counters();
    }
    run.wall = nowSeconds() - t0;
    if (store)
        run.snapshot = finalSnapshot(dir, epochs);
    return run;
}

double
count(const Counters &c, const std::string &name)
{
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
}

/** Output checks of one plain run; fills attempted/failed. */
void
checkRun(const OnlineRun &run, Report &report)
{
    report.attempted += static_cast<std::uint64_t>(run.epochs);
    report.check("durability_status_ok", run.ok, run.status);
    if (!run.ok) {
        report.failed += static_cast<std::uint64_t>(run.epochs);
        return;
    }
    const int calls = static_cast<int>(run.log.entries.size());
    report.check("allocate_count_equals_epochs", calls == run.epochs,
                 std::to_string(calls) + " allocate calls, " +
                     std::to_string(run.epochs) + " epochs");
    int failed = 0;
    for (char f : run.log.failed)
        failed += f ? 1 : 0;
    report.check("non_converged_epochs_agree",
                 run.nonConvergedEpochs == failed,
                 std::to_string(run.nonConvergedEpochs) +
                     " counted by the simulator, " + std::to_string(failed) +
                     " seen by the decorator");
    failed += std::max(0, run.epochs - calls);
    report.failed += static_cast<std::uint64_t>(failed);
}

} // namespace

void
runOnline(const RunOptions &opts, Report &report)
{
    const bool durable = isDurable(opts);
    exec::setThreadCount(1);

    // Set-up: characterize every workload into a fresh cache and open
    // the store, repeated so set-up time is reported as a median.
    std::vector<double> setup;
    std::optional<eval::CharacterizationCache> cache;
    const auto set_up = [&] {
        for (int rep = 0; rep < kSetupRepsPerRun; ++rep) {
            const double t0 = nowSeconds();
            cache.emplace();
            warmCache(*cache, scenario(opts, 0).coresPerServer);
            if (durable) {
                auto opened = openFreshStore(opts.workdir + "/setup");
                report.check("store_opens", opened.ok(),
                             opened.ok() ? "" : opened.status().toString());
            }
            setup.push_back(nowSeconds() - t0);
        }
    };

    // Whole runs back to back, one scenario variant each, each after
    // its own set-up. Traced mode makes one plain run, the baseline for
    // the overhead and the byte-identity check.
    const std::string dir = durable ? opts.workdir + "/state" : "";
    const Budget budget(opts.seconds,
                        durable ? kNominalDurableRunSeconds
                                : kNominalShardedRunSeconds,
                        1);
    std::vector<OnlineRun> runs;
    for (unsigned k = 0; runs.empty() || (!opts.trace && budget.more(static_cast<int>(k)));
         ++k) {
        set_up();
        runs.push_back(runPlain(*cache, scenario(opts, k), dir));
        OnlineRun &run = runs.back();
        checkRun(run, report);
        Variant variant;
        variant.digests["metrics_crc32"] = run.metricsCrc;
        variant.counters = run.counters;
        if (durable) {
            report.check("final_snapshot_read", !run.snapshot.empty());
            variant.digests["final_snapshot_crc32"] = hex32(crc32(run.snapshot));
            report.check("net_counters_zero",
                         count(run.counters, "net.msgs_sent") == 0);
        }
        report.variants.push_back(std::move(variant));
        if (!opts.trace)
            run.snapshot.clear(); // only the traced run compares bytes
    }

    std::vector<double> epoch_ms;
    double wall = 0.0;
    double epochs = 0.0;
    for (const OnlineRun &run : runs) {
        for (double s : run.epochSeconds)
            epoch_ms.push_back(s * 1e3);
        wall += run.wall;
        epochs += run.epochs;
    }
    if (epoch_ms.empty())
        return; // every run failed before its first epoch
    report.samplesMs = epoch_ms;
    report.set("setup_s", median(setup), "s");
    report.set("request_ms_p50", median(epoch_ms), "ms");
    report.set("request_ms_p95", quantile(epoch_ms, 0.95), "ms");
    report.set("requests_per_s", wall > 0 ? epochs / wall : 0.0, "1/s");
    report.set("peak_rss_mb", peakRssMb(), "MiB");
    if (!opts.trace)
        return;

    const OnlineRun &first = runs.front();
    Spans spans;
    const std::string traced_dir = durable ? opts.workdir + "/traced" : "";
    const TracedRun traced =
        runTraced(*cache, scenario(opts, 0), traced_dir, spans);
    report.check("traced_status_ok", traced.ok, traced.status);
    report.check("traced_metrics_identical",
                 hex32(metricsDigest(traced.metrics)) == first.metricsCrc);
    if (durable) {
        report.check("traced_snapshot_identical",
                     !traced.snapshot.empty() &&
                         traced.snapshot == first.snapshot);
    }
    if (!traced.ok)
        return;

    const Counters &c = first.counters;
    const double rounds = count(c, "bidding.iterations");
    const double n = static_cast<double>(first.epochs);
    std::vector<double> alloc_ms;
    for (double s : traced.log.allocSeconds)
        alloc_ms.push_back(s * 1e3);
    std::vector<double> eval_self_ms;
    for (double s : spans.selfSeconds("eval.run_epoch"))
        eval_self_ms.push_back(s * 1e3);
    std::vector<double> encode_ms, commit_ms;
    for (double s : traced.encodeSeconds)
        encode_ms.push_back(s * 1e3);
    for (double s : traced.commitSeconds)
        commit_ms.push_back(s * 1e3);

    report.set("core.rounds", rounds / n, "count");
    report.set("core.kernel_reuses", count(c, "bidding.kernel_reuses"),
               "count");
    report.set("core.kernel_rebuilds", count(c, "bidding.kernel_rebuilds"),
               "count");
    report.set("core.kernel_patched_users",
               count(c, "bidding.kernel_patched_users"), "count");
    report.set("online.delta.warm_epochs",
               count(c, "online.delta.warm_epochs"), "count");
    report.set("online.delta.meanfield_epochs",
               count(c, "online.delta.meanfield_epochs"), "count");
    report.set("solver.wf_solves", count(c, "solver.wf.solves"), "count");
    report.set("exec.tasks", count(c, "exec.tasks"), "count");
    report.set("alloc.allocate_ms_p50", median(alloc_ms), "ms");
    report.set("alloc.non_primary_serves", first.log.nonPrimary, "count");
    report.set("eval.epoch_self_ms", median(eval_self_ms), "ms");
    if (durable) {
        report.set("durability.encode_ms", median(encode_ms), "ms");
        report.set("durability.commit_ms", median(commit_ms), "ms");
    }
    report.set("durability.state_bytes_final",
               static_cast<double>(traced.stateBytesFinal), "bytes");
    report.set("durability.snapshot_bytes",
               static_cast<double>(traced.snapshot.size()), "bytes");
    report.set("durability.journal_commits",
               static_cast<double>(traced.store.journalAppends), "count");
    report.set("durability.snapshots_written",
               static_cast<double>(traced.store.snapshotsWritten), "count");
    for (const char *name : {"net.msgs_sent", "net.msgs_delivered",
                             "net.retransmits", "net.degraded_rounds",
                             "net.stale_bid_rounds"})
        report.set(name, count(c, name), "count");
    report.set("net.msgs_per_round",
               rounds > 0 ? count(c, "net.msgs_sent") / rounds : 0.0,
               "count");
    for (const auto &[layer, secs] : spans.selfSecondsByLayer())
        report.set(layer + ".self_ms", secs * 1e3 / n, "ms");
    report.set("trace.overhead_frac", traced.wall / first.wall - 1.0,
               "ratio");
    report.set("trace.spans", static_cast<double>(spans.spans().size()),
               "count");
    if (!opts.spansPath.empty())
        report.check("spans_written", spans.writeJson(opts.spansPath));
}

} // namespace perfbench
