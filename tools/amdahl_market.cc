/**
 * @file
 * amdahl_market — command-line front end to the processor market.
 *
 * Subcommands:
 *
 *   solve <file> [options]   Run Amdahl Bidding on a market file and
 *                            print prices, allocations, and the
 *                            equilibrium certificate.
 *       --epsilon <e>        Price-change termination threshold
 *                            (default 1e-6).
 *       --max-iterations <n> Iteration cap (default 10000).
 *       --fractional         Skip Hamilton rounding in the output.
 *       --deadline-iterations <n>
 *                            Anytime iteration budget: serve the best
 *                            budget-feasible bid state after n rounds.
 *       --deadline-seconds <s>
 *                            Anytime wall-clock budget.
 *
 *   check <file>             Validate a market file against the trust
 *                            boundary: print the classified,
 *                            line-numbered error (parse/domain/
 *                            semantic) or a summary of the market.
 *       --allow-duplicate-jobs
 *                            Accept one user listing a server twice.
 *
 *   workloads                Print the Table I workload library with
 *                            measured characterizations.
 *
 *   profile <workload>       Run the Section IV pipeline on one
 *                            workload: sampled datasets, Karp-Flatt
 *                            estimates, fitted predictor, accuracy.
 *
 *   simulate <workload> <cores> [gb]
 *                            Execute one run on the simulator and
 *                            print the per-stage trace.
 *
 *   example                  Print a sample market file (the paper's
 *                            Alice/Bob example).
 *
 *   trace [options]          Run a seeded online simulation under the
 *                            fallback ladder and stream the JSONL
 *                            convergence trace (stdout unless
 *                            --trace-out redirects it); the run
 *                            summary goes to stderr.
 *
 *   trace analyze <file>     Reconstruct the span DAG from a captured
 *                            --span-trace stream: per-round critical-
 *                            path attribution (compute / net delay /
 *                            retransmit / partition / quorum), round
 *                            latency p50/p99/max in ticks, degraded
 *                            rounds, and transfer outcome counts.
 *                            Exit 1 on any violation: a line that is
 *                            not one flat JSON object, a duplicate,
 *                            orphaned or time-inverted span, a child
 *                            that begins before its parent, a round
 *                            whose causes do not sum to its latency,
 *                            or a fresh round whose charges its
 *                            transfer spans do not reproduce.
 *       --chrome <path>      Also export Chrome trace_event JSON for
 *                            chrome://tracing / Perfetto.
 *       --seed <n>           Scenario seed (default 0x0517e5).
 *       --users/--servers/--cores <n>
 *                            Cluster shape.
 *       --epochs <n>         Horizon in epochs (default 20).
 *       --faults             Enable server churn and bid-message loss.
 *       --admission          Enable overload admission control.
 *       --state-dir <dir>    Persist a write-ahead epoch journal (one
 *                            record per epoch, never cut back) and
 *                            checksummed snapshots (two generations)
 *                            under dir; the run becomes
 *                            crash-recoverable.
 *       --snapshot-every <n> Epochs between full snapshots (default 8;
 *                            0 = final snapshot only).
 *       --recover            Resume from the durable state in
 *                            --state-dir: load the newest snapshot that
 *                            verifies, truncate the trace file to the
 *                            durable frontier, replay and verify the
 *                            journaled epochs after that snapshot, and
 *                            continue. The finished trace is
 *                            byte-identical to an uninterrupted run.
 *       --io-fault-rate <p>  Inject deterministic transient-IO faults
 *                            with per-attempt probability p.
 *       --io-fault-seed <n>  Substream seed for injected IO faults.
 *       --io-max-retries <n> Attempts per disk operation (default 4).
 *       --kill-point <site[:N]>
 *                            Hard-exit (code 86) the Nth time the named
 *                            commit-protocol site is reached; also read
 *                            from AMDAHL_KILL_POINT when absent.
 *       --list-kill-points   Print the crash-site catalog and exit.
 *
 *   stats <file> [options]   Solve a market file with phase timing
 *                            enabled and dump the metrics registry
 *                            (counters, gauges, timing histograms).
 *       --json               Emit the registry as JSON instead of text.
 *
 * Global flags (any subcommand, before or after it):
 *
 *   --trace-out <path>       Write the structured JSONL trace to path.
 *   --metrics-out <path>     Write a metrics-registry JSON snapshot to
 *                            path on exit (text when path ends .txt).
 *   --timing                 Record phase wall-time histograms (off by
 *                            default; timing never enters traces).
 *   --span-trace             Emit causal `span` events (virtual-time
 *                            rounds, barriers, transfers, rungs,
 *                            epochs) into the trace stream for
 *                            `trace analyze`.
 *   --log-level <level>      stderr verbosity: quiet, warn, or info.
 *   --threads <n|auto>       Worker threads for the parallel clearing
 *                            kernels (default 1, or AMDAHL_THREADS;
 *                            "auto" = hardware concurrency). Results
 *                            are byte-identical at any thread count.
 *
 * `solve` also accepts:
 *
 *   --accel                  Anderson-accelerate the proportional-
 *                            response iteration (DESIGN.md §16).
 *                            Typically tens of times fewer rounds on
 *                            slowly-mixing markets; each accepted
 *                            step is validated against the plain
 *                            update, so the iteration never regresses
 *                            below undamped proportional response.
 *   --accel-depth <n>        Anderson history window in [1, 8]
 *                            (default 3).
 */

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "alloc/fallback_policy.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/bidding.hh"
#include "core/market_io.hh"
#include "core/rounding.hh"
#include "eval/characterization.hh"
#include "eval/online.hh"
#include "exec/parallelism.hh"
#include "net/options.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/timer.hh"
#include "obs/trace.hh"
#include "profiling/karp_flatt.hh"
#include "robustness/durability/durable_store.hh"
#include "robustness/durability/kill_points.hh"
#include "profiling/predictor.hh"
#include "profiling/profiler.hh"
#include "profiling/sampler.hh"
#include "sim/task_sim.hh"
#include "sim/workload_library.hh"

namespace {

using namespace amdahl;

/**
 * Parse all of @p text as a base-10 T (int, an unsigned integer type
 * or double) for the flag named @p flag. Unlike std::stoi and
 * friends, nothing may follow the number, and an unsigned flag
 * rejects a sign instead of wrapping "-1" to its maximum.
 * @throws FatalError naming the flag and the text it got.
 */
template <typename T>
T
parseNumber(std::string_view flag, const std::string &text)
{
    T value{};
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, value);
    if (!text.empty() && ec == std::errc() && ptr == last)
        return value;
    if (ec == std::errc::result_out_of_range && ptr == last)
        fatal(flag, " value '", text, "' is out of range");
    const char *want = std::is_floating_point_v<T> ? "a number"
                       : std::is_signed_v<T>       ? "an integer"
                                                   : "a non-negative integer";
    fatal(flag, " expects ", want, ", got '", text, "'");
}

int
usage()
{
    std::cerr
        << "usage: amdahl_market solve <file> [--epsilon e]\n"
        << "                     [--max-iterations n] [--fractional]\n"
        << "                     [--deadline-iterations n]"
        << " [--deadline-seconds s]\n"
        << "                     [--accel] [--accel-depth n]\n"
        << "       amdahl_market check <file> [--allow-duplicate-jobs]\n"
        << "       amdahl_market workloads\n"
        << "       amdahl_market profile <workload>\n"
        << "       amdahl_market simulate <workload> <cores> [gb]\n"
        << "       amdahl_market example\n"
        << "       amdahl_market trace [--seed n] [--users n]"
        << " [--servers n] [--cores n]\n"
        << "                     [--epochs n] [--faults] [--admission]\n"
        << "                     [--state-dir dir] [--snapshot-every n]\n"
        << "                     [--recover] [--io-fault-rate p]"
        << " [--io-fault-seed n]\n"
        << "                     [--io-max-retries n]"
        << " [--kill-point site[:N]] [--list-kill-points]\n"
        << "                     [--shards n] [--net-loss p]"
        << " [--net-delay max|min:max]\n"
        << "                     [--net-dup p] [--net-seed n]"
        << " [--net-partition shard:from:to]...\n"
        << "                     [--barrier-deadline ticks]"
        << " [--quorum f] [--max-stale n]\n"
        << "       amdahl_market trace analyze <trace.jsonl>"
        << " [--chrome out.json]\n"
        << "       amdahl_market stats <file> [--json]\n"
        << "global flags: [--trace-out path] [--metrics-out path]"
        << " [--timing] [--span-trace]\n"
        << "              [--log-level quiet|warn|info]"
        << " [--threads n|auto]\n";
    return 2;
}

int
cmdSolve(const std::vector<std::string> &args)
{
    std::string path;
    core::BiddingOptions opts;
    bool fractional = false;
    for (std::size_t a = 0; a < args.size(); ++a) {
        const std::string &arg = args[a];
        if (arg == "--epsilon" && a + 1 < args.size()) {
            opts.priceTolerance = parseNumber<double>(arg, args[++a]);
        } else if (arg == "--max-iterations" && a + 1 < args.size()) {
            opts.maxIterations = parseNumber<int>(arg, args[++a]);
        } else if (arg == "--fractional") {
            fractional = true;
        } else if (arg == "--deadline-iterations" &&
                   a + 1 < args.size()) {
            opts.deadline.iterationBudget = parseNumber<int>(arg, args[++a]);
        } else if (arg == "--deadline-seconds" && a + 1 < args.size()) {
            opts.deadline.wallClockSeconds =
                parseNumber<double>(arg, args[++a]);
        } else if (arg == "--accel") {
            opts.accel.enabled = true;
        } else if (arg == "--accel-depth" && a + 1 < args.size()) {
            opts.accel.enabled = true;
            opts.accel.depth = parseNumber<int>(arg, args[++a]);
        } else if (path.empty() && !arg.empty() && arg[0] != '-') {
            path = arg;
        } else {
            std::cerr << "unknown option '" << arg << "'\n";
            return usage();
        }
    }
    if (path.empty())
        return usage();

    // Market files are tenant-supplied: reject with the classified,
    // line-numbered diagnostic rather than unwinding on the first bad
    // token.
    auto parsed = core::loadMarket(path);
    if (!parsed.ok()) {
        std::cerr << path << ": " << parsed.status().toString() << "\n";
        return 1;
    }
    const auto market = parsed.take();
    const auto result = core::solveAmdahlBidding(market, opts);

    std::cout << (result.converged ? "converged" : "NOT converged")
              << " after " << result.iterations << " iterations";
    if (result.deadlineExpired)
        std::cout << " (deadline expired; best anytime state)";
    std::cout << "\n\n";

    TablePrinter prices;
    prices.addColumn("Server");
    prices.addColumn("Capacity");
    prices.addColumn("Price");
    for (std::size_t j = 0; j < market.serverCount(); ++j) {
        prices.beginRow().cell(j).cell(market.capacity(j), 0).cell(
            result.prices[j], 4);
    }
    prices.print(std::cout);
    std::cout << '\n';

    const auto rounded = core::roundOutcome(market, result);
    TablePrinter alloc;
    alloc.addColumn("User", TablePrinter::Align::Left);
    alloc.addColumn("Job");
    alloc.addColumn("Server");
    alloc.addColumn(fractional ? "Cores (fractional)" : "Cores");
    alloc.addColumn("Bid");
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        const auto &user = market.user(i);
        for (std::size_t k = 0; k < user.jobs.size(); ++k) {
            alloc.beginRow()
                .cell(user.name.empty() ? "user" + std::to_string(i)
                                        : user.name)
                .cell(k)
                .cell(user.jobs[k].server);
            if (fractional)
                alloc.cell(result.allocation[i][k], 3);
            else
                alloc.cell(rounded[i][k]);
            alloc.cell(result.bids[i][k], 4);
        }
    }
    alloc.print(std::cout);

    const auto check = core::verifyEquilibrium(market, result);
    std::cout << "\nequilibrium certificate: clearing "
              << formatDouble(check.maxClearingResidual, 9)
              << ", budget " << formatDouble(check.maxBudgetResidual, 9)
              << ", optimality gap "
              << formatDouble(check.maxOptimalityGap, 9) << "\n";
    // An anytime state served under a deadline is budget-feasible by
    // contract but not an equilibrium; don't fail on its certificate.
    if (result.deadlineExpired)
        return 0;
    return check.pass(1e-3) ? 0 : 1;
}

int
cmdCheck(const std::vector<std::string> &args)
{
    std::string path;
    core::MarketParseOptions opts;
    for (const std::string &arg : args) {
        if (arg == "--allow-duplicate-jobs") {
            opts.rejectDuplicateServerJobs = false;
        } else if (path.empty() && !arg.empty() && arg[0] != '-') {
            path = arg;
        } else {
            std::cerr << "unknown option '" << arg << "'\n";
            return usage();
        }
    }
    if (path.empty())
        return usage();

    auto parsed = core::loadMarket(path, opts);
    if (!parsed.ok()) {
        std::cerr << path << ": " << parsed.status().toString() << "\n";
        return 1;
    }
    const auto market = parsed.take();
    std::size_t job_count = 0;
    for (std::size_t i = 0; i < market.userCount(); ++i)
        job_count += market.user(i).jobs.size();
    std::cout << path << ": OK — " << market.serverCount()
              << " server(s), " << formatDouble(market.totalCores(), 0)
              << " cores, " << market.userCount() << " user(s), "
              << job_count << " job(s), total budget "
              << formatDouble(market.totalBudget(), 3) << "\n";
    return 0;
}

int
cmdWorkloads()
{
    eval::CharacterizationCache cache;
    TablePrinter table;
    table.addColumn("ID");
    table.addColumn("Name", TablePrinter::Align::Left);
    table.addColumn("Suite", TablePrinter::Align::Left);
    table.addColumn("F(meas)");
    table.addColumn("F(est)");
    table.addColumn("T1(s)");
    const auto &library = sim::workloadLibrary();
    for (std::size_t i = 0; i < library.size(); ++i) {
        const auto &c = cache.of(i);
        table.beginRow()
            .cell(library[i].id)
            .cell(library[i].name)
            .cell(toString(library[i].suite))
            .cell(c.measuredFraction, 3)
            .cell(c.estimatedFraction, 3)
            .cell(c.t1Seconds, 1);
    }
    table.print(std::cout);
    return 0;
}

int
cmdProfile(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage();
    const auto &workload = sim::findWorkload(args[0]);

    const profiling::Profiler profiler((sim::TaskSimulator()));
    const auto plan = profiling::planSamples(workload);
    const auto profile = profiler.profile(workload, plan.sampleSizesGB);

    TablePrinter kf;
    kf.addColumn("Dataset(GB)");
    kf.addColumn("E[F]");
    kf.addColumn("Var(F)");
    for (double gb : profile.datasetsGB) {
        const auto est = profiling::estimateFraction(profile, gb);
        kf.beginRow().cell(gb, 2).cell(est.expected, 3).cell(
            formatDouble(est.variance, 6));
    }
    kf.print(std::cout);

    const auto predictor = profiling::PerformancePredictor::fit(profile);
    const sim::TaskSimulator sim;
    const auto report = profiling::evaluatePredictor(
        predictor, sim, workload, workload.datasetGB,
        {1, 2, 4, 8, 16, 24});
    std::cout << "\nestimated parallel fraction: "
              << formatDouble(predictor.parallelFraction(), 3)
              << "\nfull-dataset prediction error: "
              << formatDouble(report.meanErrorPercent, 2) << "% mean, "
              << formatDouble(report.errorSummary.max, 2) << "% max\n";
    return 0;
}

int
cmdSimulate(const std::vector<std::string> &args)
{
    if (args.size() < 2 || args.size() > 3)
        return usage();
    const auto &workload = sim::findWorkload(args[0]);
    const int cores = parseNumber<int>("simulate <cores>", args[1]);
    const double gb = args.size() == 3
                          ? parseNumber<double>("simulate <gb>", args[2])
                          : workload.datasetGB;

    const sim::TaskSimulator sim;
    const auto result = sim.execute(workload, gb, cores);
    TablePrinter table;
    table.addColumn("Stage", TablePrinter::Align::Left);
    table.addColumn("start(s)");
    table.addColumn("end(s)");
    table.addColumn("tasks");
    table.addColumn("workers");
    table.addColumn("comm(s)");
    table.addColumn("bw slowdown");
    for (const auto &stage : result.stages) {
        table.beginRow()
            .cell(stage.label)
            .cell(stage.startSeconds, 2)
            .cell(stage.endSeconds, 2)
            .cell(stage.tasks)
            .cell(stage.workers)
            .cell(stage.commSeconds, 2)
            .cell(stage.bandwidthSlowdown, 2);
    }
    table.print(std::cout);
    std::cout << "\ntotal " << formatDouble(result.totalSeconds, 2)
              << " s on " << cores << " core(s), speedup "
              << formatDouble(sim.speedup(workload, gb, cores), 2)
              << "\n";
    return 0;
}

/**
 * Flush the trace sink exactly once and surface its sticky Status.
 * Every cmdTrace exit after the sink is installed — including the
 * early aborts of the durable path — must route through here: a
 * swallowed trace-IO failure would let a run that silently lost
 * trace lines exit 0 and poison every downstream byte-identity check.
 */
int
finishTraceSink(std::optional<obs::TraceSink> &sink,
                const std::string &traceOut, int status)
{
    if (!sink)
        return status;
    (void)sink->flush();
    if (Status st = sink->status(); !st.isOk()) {
        std::cerr << "trace output '"
                  << (traceOut.empty() ? "<stdout>" : traceOut)
                  << "': " << st.toString() << "\n";
        if (status == 0)
            status = 1;
    }
    return status;
}

/** Round-span cost fields, in the order the attribution table prints. */
constexpr std::array<const char *, 5> kRoundCosts = {
    "c_compute", "c_delay", "c_retransmit", "c_partition", "c_quorum"};
constexpr std::array<const char *, 5> kCauseLabels = {
    "compute", "net_delay", "retransmit", "partition_wait", "quorum_wait"};

/** One `span` event with the fields the analyzer reads, typed. */
struct SpanRecord
{
    int line = 0;
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    std::optional<std::uint64_t> shard;
    std::optional<std::uint64_t> round;
    std::optional<std::uint64_t> attempt;
    std::optional<std::uint64_t> epoch;
    std::string cause;
    std::string outcome;
    // Round spans only.
    bool fresh = true;
    std::uint64_t closer = 0;
    std::uint64_t ticks = 0;
    std::array<std::uint64_t, kRoundCosts.size()> costs{};
};

/**
 * Type one parsed span event. Every field the analyzer reads must
 * have its emitted type, and a round span must carry all of them.
 */
Status
readSpan(const JsonObject &event, int line, SpanRecord &s)
{
    std::string_view bad; // first missing or mistyped field
    const auto u64 = [&](std::string_view key) {
        const auto *v = event.get<std::uint64_t>(key);
        if (v == nullptr && bad.empty())
            bad = key;
        return v == nullptr ? 0 : *v;
    };
    const auto optU64 = [&](std::string_view key) {
        return event.find(key) == nullptr
                   ? std::nullopt
                   : std::optional<std::uint64_t>(u64(key));
    };
    const auto text = [&](std::string_view key, bool required) {
        const auto *v = event.get<std::string>(key);
        if (v == nullptr && (required || event.find(key) != nullptr) &&
            bad.empty())
            bad = key;
        return v == nullptr ? std::string() : *v;
    };
    s.line = line;
    s.name = text("name", true);
    s.id = u64("id");
    s.parent = u64("parent");
    s.t0 = u64("t0");
    s.t1 = u64("t1");
    s.shard = optU64("shard");
    s.round = optU64("round");
    s.attempt = optU64("attempt");
    s.epoch = optU64("epoch");
    s.outcome = text("outcome", false);
    if (s.name == "round") {
        s.cause = text("cause", true);
        const auto *fresh = event.get<bool>("fresh");
        if (fresh == nullptr && bad.empty())
            bad = "fresh";
        s.fresh = fresh == nullptr || *fresh;
        s.closer = u64("closer");
        s.ticks = u64("ticks");
        for (std::size_t k = 0; k < kRoundCosts.size(); ++k)
            s.costs[k] = u64(kRoundCosts[k]);
    } else {
        s.cause = text("cause", false);
    }
    if (!bad.empty())
        return Status::error(ErrorKind::DomainError, line, "span field \"",
                             bad, "\" is missing or has the wrong type");
    return Status::ok();
}

using SpanChildren =
    std::unordered_map<std::uint64_t, std::vector<std::size_t>>;

/**
 * The fresh-round critical-path cross-check. A fresh round's latency
 * runs along its closing chain: the price broadcast to the closer
 * shard, then the bid transfer from that shard which closed the
 * barrier. Some delivered pair of those transfers under the round's
 * barrier must reproduce the round's c_delay (both transits) and
 * c_retransmit (the gap between them); otherwise the emitter and the
 * DAG disagree about what closed the barrier.
 */
bool
closingChainMatches(const SpanRecord &round,
                    const std::vector<SpanRecord> &spans,
                    const SpanChildren &children)
{
    const auto under = [&](std::uint64_t parent, std::string_view name) {
        std::vector<const SpanRecord *> out;
        if (const auto it = children.find(parent); it != children.end())
            for (std::size_t i : it->second)
                if (spans[i].name == name)
                    out.push_back(&spans[i]);
        return out;
    };
    const auto closing = [&](const SpanRecord *x) {
        return x->shard == round.closer && x->outcome == "delivered";
    };
    const std::uint64_t delay = round.costs[1];      // c_delay
    const std::uint64_t retransmit = round.costs[2]; // c_retransmit
    const auto barriers = under(round.id, "barrier");
    if (barriers.empty())
        return false;
    const auto bids = under(barriers.front()->id, "bid_xfer");
    for (const SpanRecord *p : under(barriers.front()->id, "price_xfer")) {
        if (!closing(p) || p->t0 != round.t0)
            continue;
        for (const SpanRecord *b : bids)
            if (closing(b) && b->t1 == round.t1 && b->t0 >= p->t1 &&
                (p->t1 - p->t0) + (b->t1 - b->t0) == delay &&
                b->t0 - p->t1 == retransmit)
                return true;
    }
    return false;
}

/** Write every span as a Chrome trace_event complete ("X") event. */
bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans)
{
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord &s : spans) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"name\":" << jsonEscape(s.name)
            << ",\"cat\":\"amdahl\",\"ph\":\"X\",\"ts\":" << s.t0
            << ",\"dur\":" << (s.t1 - s.t0) << ",\"pid\":1"
            << ",\"tid\":" << (s.shard ? *s.shard + 1 : 0)
            << ",\"args\":{\"id\":\"" << s.id << "\",\"parent\":\""
            << s.parent << "\"";
        if (s.round)
            out << ",\"round\":" << *s.round;
        if (!s.cause.empty())
            out << ",\"cause\":" << jsonEscape(s.cause);
        if (!s.outcome.empty())
            out << ",\"outcome\":" << jsonEscape(s.outcome);
        if (s.attempt)
            out << ",\"attempt\":" << *s.attempt;
        if (s.epoch)
            out << ",\"epoch\":" << *s.epoch;
        out << "}}";
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    out.flush();
    return out.good();
}

int
cmdTraceAnalyze(const std::vector<std::string> &args)
{
    std::string path;
    std::string chromeOut;
    for (std::size_t a = 0; a < args.size(); ++a) {
        const std::string &arg = args[a];
        if (arg == "--chrome" && a + 1 < args.size()) {
            chromeOut = args[++a];
        } else if (path.empty() && !arg.empty() && arg[0] != '-') {
            path = arg;
        } else {
            std::cerr << "unknown option '" << arg << "'\n";
            return usage();
        }
    }
    if (path.empty())
        return usage();

    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open trace '" << path << "'\n";
        return 1;
    }

    // Pass one: every line must parse; span events are kept, typed.
    // Parents may be emitted after their children (a round closes
    // after its transfers), so every graph check waits for pass two.
    std::vector<Status> errors;
    std::vector<SpanRecord> spans;
    std::string text;
    for (int line = 1; std::getline(in, text); ++line) {
        if (text.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        auto event = parseJsonObject(text, line);
        if (!event.ok()) {
            errors.push_back(event.status());
            continue;
        }
        const auto *ev = event.value().get<std::string>("ev");
        if (ev == nullptr || *ev != "span")
            continue;
        SpanRecord s;
        if (Status st = readSpan(event.value(), line, s); !st.isOk())
            errors.push_back(std::move(st));
        else
            spans.push_back(std::move(s));
    }
    if (errors.empty() && spans.empty()) {
        std::cerr << "no span events in '" << path
                  << "' (captured without --span-trace?)\n";
        return 1;
    }

    const auto violation = [&](const SpanRecord &s, auto &&...parts) {
        errors.push_back(
            Status::error(ErrorKind::SemanticError, s.line, parts...));
    };
    std::unordered_map<std::uint64_t, std::size_t> byId;
    SpanChildren children;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        if (s.t0 > s.t1)
            violation(s, "time inversion: span ", s.id, " has t0 ", s.t0,
                      " > t1 ", s.t1);
        if (const auto [first, fresh] = byId.emplace(s.id, i); !fresh)
            violation(s, "duplicate span id ", s.id, " (first on line ",
                      spans[first->second].line, ")");
        children[s.parent].push_back(i);
    }
    for (const SpanRecord &s : spans) {
        if (s.parent == 0)
            continue;
        const auto it = byId.find(s.parent);
        if (it == byId.end())
            violation(s, "orphaned span ", s.id, ": parent ", s.parent,
                      " never emitted");
        else if (spans[it->second].t0 > s.t0)
            violation(s, "span ", s.id, " begins at t0 ", s.t0,
                      " before its parent ", s.parent, " at t0 ",
                      spans[it->second].t0);
    }

    // Per-round attribution audit: the per-cause breakdown must sum
    // exactly to the round's virtual-time latency — an analyzer that
    // "mostly" accounts for a round cannot support an SLO post-mortem.
    std::vector<std::uint64_t> latencies;
    std::array<std::uint64_t, kRoundCosts.size()> totals{};
    std::uint64_t totalTicks = 0;
    std::uint64_t degraded = 0;
    std::array<std::uint64_t, 4> transfers{};
    constexpr std::array<std::string_view, 4> kOutcomes = {
        "delivered", "lost", "partition_drop", "duplicate"};
    for (const SpanRecord &s : spans) {
        if (s.name == "price_xfer" || s.name == "bid_xfer") {
            const auto k = static_cast<std::size_t>(
                std::find(kOutcomes.begin(), kOutcomes.end(),
                          s.outcome) -
                kOutcomes.begin());
            if (k == kOutcomes.size())
                violation(s, "unknown transfer outcome \"", s.outcome,
                          "\"");
            else
                ++transfers[k];
        }
        if (s.name != "round" || s.t0 > s.t1)
            continue;
        const std::uint64_t latency = s.t1 - s.t0;
        std::uint64_t sum = 0;
        bool overflow = false;
        for (std::size_t k = 0; k < kRoundCosts.size(); ++k) {
            overflow |= __builtin_add_overflow(sum, s.costs[k], &sum);
            totals[k] += s.costs[k];
        }
        if (overflow || sum != latency || s.ticks != latency)
            violation(s, "cause sum mismatch: round ", s.round.value_or(0),
                      " has latency ", latency, " (ticks field ", s.ticks,
                      ") but its causes sum to ",
                      overflow ? std::string("more than 2^64")
                               : std::to_string(sum));
        if ((s.cause == "net_delay" || s.cause == "retransmit") &&
            !closingChainMatches(s, spans, children))
            violation(s, "critical path mismatch: round ",
                      s.round.value_or(0),
                      ": no delivered price/bid transfer chain to closer "
                      "shard ",
                      s.closer, " reproduces c_delay ", s.costs[1],
                      " + c_retransmit ", s.costs[2]);
        latencies.push_back(latency);
        totalTicks += latency;
        degraded += s.fresh ? 0 : 1;
    }
    if (!errors.empty()) {
        for (const Status &st : errors)
            std::cerr << path << ": " << st.toString() << "\n";
        std::cerr << errors.size() << " violation(s)\n";
        return 1;
    }

    std::sort(latencies.begin(), latencies.end());
    const auto percentile = [&](double p) {
        const auto idx = static_cast<std::size_t>(
            p * static_cast<double>(latencies.size() - 1));
        return latencies[idx];
    };
    std::cout << spans.size() << " span(s), " << latencies.size()
              << " round(s), " << degraded << " degraded";
    if (!latencies.empty())
        std::cout << ", round latency p50 " << percentile(0.5)
                  << " / p99 " << percentile(0.99) << " / max "
                  << latencies.back() << " tick(s)";
    std::cout << "\n"
              << "transfers: " << transfers[0] << " delivered, "
              << transfers[1] << " lost, " << transfers[2]
              << " partition-dropped, " << transfers[3]
              << " duplicated\n\n";

    TablePrinter attribution;
    attribution.addColumn("Cause", TablePrinter::Align::Left);
    attribution.addColumn("Ticks");
    attribution.addColumn("Share");
    for (std::size_t k = 0; k < kRoundCosts.size(); ++k) {
        std::string share = k == 0 ? "100.0%" : "-";
        if (totalTicks > 0)
            share = formatDouble(100.0 * static_cast<double>(totals[k]) /
                                     static_cast<double>(totalTicks),
                                 1) +
                    "%";
        attribution.beginRow().cell(kCauseLabels[k]).cell(totals[k]).cell(
            share);
    }
    attribution.print(std::cout);

    if (!chromeOut.empty()) {
        if (!writeChromeTrace(chromeOut, spans)) {
            std::cerr << "chrome export '" << chromeOut << "' failed\n";
            return 1;
        }
        std::cerr << "wrote " << chromeOut << "\n";
    }
    std::cout << "\nattribution: causes sum to round latency in "
              << latencies.size() << "/" << latencies.size()
              << " round(s)\n";
    return 0;
}

/**
 * Print a trace run's one-line summary to stderr; a durable run
 * (@p durable) adds its commit, IO-fault and recovery counts.
 */
void
printRunSummary(int epochs, const eval::OnlineOptions &opts,
                const eval::OnlineMetrics &metrics, bool durable)
{
    std::cerr << "trace: " << epochs << " epoch(s), "
              << metrics.jobsArrived << " job(s) arrived, "
              << metrics.jobsCompleted << " completed, "
              << metrics.nonConvergedEpochs
              << " non-converged epoch(s)";
    if (opts.faults.enabled)
        std::cerr << ", " << metrics.crashEvents << " crash(es)";
    if (opts.admission.enabled)
        std::cerr << ", " << metrics.jobsShed << " shed";
    if (opts.net.enabled()) {
        std::cerr << ", " << metrics.netDegradedRounds
                  << " degraded round(s), "
                  << metrics.netQuorumCollapses
                  << " quorum collapse(s), " << metrics.netRetransmits
                  << " retransmit(s)";
    }
    if (durable) {
        std::cerr << ", " << metrics.journalCommits
                  << " journal commit(s), " << metrics.snapshotsWritten
                  << " snapshot(s)";
    }
    if (metrics.ioInjectedFaults > 0)
        std::cerr << ", " << metrics.ioInjectedFaults
                  << " injected IO fault(s) (" << metrics.ioRetries
                  << " retried)";
    if (metrics.recovered)
        std::cerr << "; recovered from epoch "
                  << metrics.recoveryFrontierEpoch << " ("
                  << metrics.recoveryReplayedEpochs
                  << " epoch(s) replayed)";
    std::cerr << "\n";
}

int
cmdTrace(const std::vector<std::string> &args,
         const std::string &traceOut)
{
    if (!args.empty() && args[0] == "analyze")
        return cmdTraceAnalyze(
            std::vector<std::string>(args.begin() + 1, args.end()));
    eval::OnlineOptions opts;
    durability::DurabilityOptions dur;
    int epochs = 20;
    bool durable = false;
    bool recover = false;
    bool io_knobs = false;
    std::string kill_spec;
    for (std::size_t a = 0; a < args.size(); ++a) {
        const std::string &arg = args[a];
        if (arg == "--seed" && a + 1 < args.size()) {
            opts.seed = parseNumber<std::uint64_t>(arg, args[++a]);
        } else if (arg == "--users" && a + 1 < args.size()) {
            opts.users = parseNumber<int>(arg, args[++a]);
        } else if (arg == "--servers" && a + 1 < args.size()) {
            opts.servers = parseNumber<int>(arg, args[++a]);
        } else if (arg == "--cores" && a + 1 < args.size()) {
            opts.coresPerServer = parseNumber<int>(arg, args[++a]);
        } else if (arg == "--epochs" && a + 1 < args.size()) {
            epochs = parseNumber<int>(arg, args[++a]);
        } else if (arg == "--faults") {
            opts.faults.enabled = true;
            opts.faults.crashRatePerServerEpoch = 0.02;
            opts.faults.bidLossRate = 0.05;
        } else if (arg == "--admission") {
            opts.admission.enabled = true;
        } else if (arg == "--state-dir" && a + 1 < args.size()) {
            dur.stateDir = args[++a];
            durable = true;
        } else if (arg == "--snapshot-every" && a + 1 < args.size()) {
            dur.snapshotEvery = parseNumber<int>(arg, args[++a]);
        } else if (arg == "--recover") {
            recover = true;
        } else if (arg == "--io-fault-rate" && a + 1 < args.size()) {
            dur.ioFaults.failureRate = parseNumber<double>(arg, args[++a]);
            io_knobs = true;
        } else if (arg == "--io-fault-seed" && a + 1 < args.size()) {
            dur.ioFaults.seed = parseNumber<std::uint64_t>(arg, args[++a]);
            io_knobs = true;
        } else if (arg == "--io-max-retries" && a + 1 < args.size()) {
            dur.ioFaults.maxRetries = parseNumber<int>(arg, args[++a]);
            io_knobs = true;
        } else if (arg == "--shards" && a + 1 < args.size()) {
            opts.net.shards = parseNumber<std::size_t>(arg, args[++a]);
        } else if (arg == "--net-loss" && a + 1 < args.size()) {
            opts.net.faults.lossRate = parseNumber<double>(arg, args[++a]);
        } else if (arg == "--net-delay" && a + 1 < args.size()) {
            if (Status st =
                    net::parseDelaySpec(args[++a], opts.net.faults);
                !st.isOk()) {
                std::cerr << "--net-delay: " << st.toString() << "\n";
                return 2;
            }
        } else if (arg == "--net-dup" && a + 1 < args.size()) {
            opts.net.faults.duplicationRate =
                parseNumber<double>(arg, args[++a]);
        } else if (arg == "--net-seed" && a + 1 < args.size()) {
            opts.net.faults.seed = parseNumber<std::uint64_t>(arg, args[++a]);
        } else if (arg == "--net-partition" && a + 1 < args.size()) {
            auto window = net::parsePartitionWindow(args[++a]);
            if (!window.ok()) {
                std::cerr << "--net-partition: "
                          << window.status().toString() << "\n";
                return 2;
            }
            opts.net.partitions.push_back(window.take());
        } else if (arg == "--barrier-deadline" && a + 1 < args.size()) {
            opts.net.barrierDeadline =
                parseNumber<std::uint64_t>(arg, args[++a]);
        } else if (arg == "--quorum" && a + 1 < args.size()) {
            opts.net.quorumFloor = parseNumber<double>(arg, args[++a]);
        } else if (arg == "--max-stale" && a + 1 < args.size()) {
            opts.net.maxStaleRounds =
                parseNumber<std::uint64_t>(arg, args[++a]);
        } else if (arg == "--kill-point" && a + 1 < args.size()) {
            kill_spec = args[++a];
        } else if (arg == "--list-kill-points") {
            for (std::string_view site :
                 durability::killPointCatalog())
                std::cout << site << "\n";
            return 0;
        } else {
            std::cerr << "unknown option '" << arg << "'\n";
            return usage();
        }
    }
    if (epochs < 1) {
        std::cerr << "trace needs at least one epoch\n";
        return usage();
    }
    if (!durable && (recover || io_knobs || !kill_spec.empty())) {
        std::cerr << "--recover, --io-fault-*, and --kill-point "
                     "require --state-dir\n";
        return usage();
    }
    if (!opts.net.enabled() &&
        (opts.net.faults.stochastic() || !opts.net.partitions.empty())) {
        std::cerr << "--net-* fault options require --shards\n";
        return usage();
    }
    if (Status st = net::validateShardedOptions(opts.net);
        !st.isOk()) {
        std::cerr << "sharded clearing options: " << st.toString()
                  << "\n";
        return 2;
    }
    opts.horizonSeconds = opts.epochSeconds * epochs;

    // Kill points arm from here, not from src/: environment probes
    // stay outside the library per the DET-exec contract.
    if (kill_spec.empty() && durable) {
        if (const char *env = std::getenv("AMDAHL_KILL_POINT"))
            kill_spec = env;
    }
    if (!kill_spec.empty()) {
        if (Status st = durability::armKillPoint(kill_spec);
            !st.isOk()) {
            std::cerr << "--kill-point: " << st.toString() << "\n";
            return 2;
        }
    }

    // Plain (non-durable) run: stream to --trace-out or stdout.
    if (!durable) {
        std::ofstream trace_file;
        std::optional<obs::TraceSink> sink;
        std::optional<obs::TraceGuard> guard;
        if (!traceOut.empty()) {
            trace_file.open(traceOut);
            if (!trace_file) {
                std::cerr << "cannot open trace output '" << traceOut
                          << "'\n";
                return 1;
            }
            sink.emplace(trace_file);
        } else {
            sink.emplace(std::cout);
        }
        guard.emplace(*sink);

        eval::CharacterizationCache cache;
        eval::OnlineSimulator simulator(cache, opts);
        const alloc::FallbackPolicy policy;
        const auto metrics =
            simulator.run(policy, eval::FractionSource::Estimated);
        if (int rc = finishTraceSink(sink, traceOut, 0); rc != 0)
            return rc;

        printRunSummary(epochs, opts, metrics, false);
        return 0;
    }

    // Durable run: open the store first so bad knobs fail with their
    // classified Status before any file is touched.
    auto opened = durability::DurableStateStore::open(dur);
    if (!opened.ok()) {
        std::cerr << "--state-dir: " << opened.status().toString()
                  << "\n";
        return 1;
    }
    auto store = opened.take();

    durability::RecoveredState rec;
    bool resuming = false;
    std::uint64_t frontier_bytes = 0;
    std::uint64_t frontier_seq = 0;
    if (recover) {
        rec = store.recover();
        for (const std::string &note : rec.notes)
            std::cerr << "recover: " << note << "\n";
        resuming = rec.hasSnapshot || !rec.entries.empty();
        if (!rec.entries.empty()) {
            frontier_bytes = rec.entries.back().traceBytes;
            frontier_seq = rec.entries.back().traceSeq;
        } else if (rec.hasSnapshot) {
            auto env =
                durability::decodeSnapshotEnvelope(rec.snapshotPayload);
            if (!env.ok()) {
                std::cerr << "recover: " << env.status().toString()
                          << "\n";
                return 1;
            }
            frontier_bytes = env.value().traceBytes;
            frontier_seq = env.value().traceSeq;
        }
        if (!resuming)
            std::cerr << "recover: no durable state found; "
                         "starting fresh\n";
    }

    // The durable run owns its trace file: on recovery it truncates to
    // the journaled frontier and appends, so the finished file is
    // byte-identical to one from an uninterrupted run.
    std::ofstream trace_file;
    std::optional<obs::TraceSink> sink;
    std::optional<obs::TraceGuard> guard;
    if (!traceOut.empty()) {
        if (resuming) {
            std::error_code ec;
            const auto size =
                std::filesystem::file_size(traceOut, ec);
            if (ec || size < frontier_bytes) {
                std::cerr << "recover: trace file '" << traceOut
                          << "' is missing or shorter than the "
                             "durable frontier ("
                          << frontier_bytes << " bytes)\n";
                return 1;
            }
            std::filesystem::resize_file(traceOut, frontier_bytes,
                                         ec);
            if (ec) {
                std::cerr << "recover: cannot truncate '" << traceOut
                          << "': " << ec.message() << "\n";
                return 1;
            }
            trace_file.open(traceOut, std::ios::app);
        } else {
            trace_file.open(traceOut, std::ios::trunc);
        }
        if (!trace_file) {
            std::cerr << "cannot open trace output '" << traceOut
                      << "'\n";
            return 1;
        }
        sink.emplace(trace_file);
    } else {
        sink.emplace(std::cout);
    }
    if (resuming)
        sink->resume(frontier_bytes, frontier_seq);
    guard.emplace(*sink);

    eval::CharacterizationCache cache;
    eval::OnlineSimulator simulator(cache, opts);
    const alloc::FallbackPolicy policy;
    auto run = simulator.runDurable(policy,
                                    eval::FractionSource::Estimated,
                                    store, resuming ? &rec : nullptr);
    if (!run.ok()) {
        // The aborted run may still have buffered trace lines (and a
        // sticky IO error of its own) — flush and surface both.
        std::cerr << "trace: " << run.status().toString() << "\n";
        return finishTraceSink(sink, traceOut, 1);
    }
    const auto metrics = run.take();
    if (int rc = finishTraceSink(sink, traceOut, 0); rc != 0)
        return rc;

    printRunSummary(epochs, opts, metrics, true);
    return 0;
}

int
cmdStats(const std::vector<std::string> &args)
{
    std::string path;
    bool json = false;
    for (const std::string &arg : args) {
        if (arg == "--json") {
            json = true;
        } else if (path.empty() && !arg.empty() && arg[0] != '-') {
            path = arg;
        } else {
            std::cerr << "unknown option '" << arg << "'\n";
            return usage();
        }
    }
    if (path.empty())
        return usage();

    auto parsed = core::loadMarket(path);
    if (!parsed.ok()) {
        std::cerr << path << ": " << parsed.status().toString() << "\n";
        return 1;
    }
    const auto market = parsed.take();

    // Time every phase of this one solve, and zero whatever start-up
    // work already recorded so the dump attributes to the solve alone.
    obs::setTimingEnabled(true);
    obs::metrics().reset();
    const auto result = core::solveAmdahlBidding(market);
    core::verifyEquilibrium(market, result);
    core::roundOutcome(market, result);

    const Status wst = json ? obs::metrics().writeJson(std::cout)
                            : obs::metrics().writeText(std::cout);
    if (!wst.isOk()) {
        std::cerr << "stats output: " << wst.toString() << "\n";
        return 1;
    }
    return result.converged ? 0 : 1;
}

int
cmdExample()
{
    std::cout << "# The paper's Section V example: two users, two\n"
              << "# 10-core servers, equal entitlements.\n"
              << "servers 10 10\n"
              << "user Alice budget 1\n"
              << "job server 0 fraction 0.53   # dedup\n"
              << "job server 1 fraction 0.93   # bodytrack\n"
              << "user Bob budget 1\n"
              << "job server 0 fraction 0.96   # x264\n"
              << "job server 1 fraction 0.68   # raytrace\n";
    return 0;
}

/** Telemetry destinations requested by the global flags. */
struct GlobalFlags
{
    std::string traceOut;
    std::string metricsOut;
    bool timing = false;
    bool spanTrace = false;
    bool ok = true;
};

/**
 * Strip the global observability flags (valid before or after the
 * subcommand) out of @p raw, applying --log-level and --timing
 * immediately. Accepts both `--flag value` and `--flag=value`.
 */
GlobalFlags
extractGlobalFlags(std::vector<std::string> &raw)
{
    GlobalFlags flags;
    auto bad = [&](const std::string &msg) {
        std::cerr << msg << "\n";
        flags.ok = false;
    };
    std::vector<std::string> kept;
    for (std::size_t a = 0; a < raw.size(); ++a) {
        const std::string &arg = raw[a];
        std::string name = arg;
        std::string value;
        bool inline_value = false;
        if (const auto eq = arg.find('='); eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            inline_value = true;
        }
        if (name != "--trace-out" && name != "--metrics-out" &&
            name != "--log-level" && name != "--timing" &&
            name != "--span-trace" && name != "--threads") {
            kept.push_back(arg);
            continue;
        }
        if (name == "--timing") {
            if (inline_value) {
                bad("--timing takes no value");
                return flags;
            }
            flags.timing = true;
            continue;
        }
        if (name == "--span-trace") {
            if (inline_value) {
                bad("--span-trace takes no value");
                return flags;
            }
            flags.spanTrace = true;
            continue;
        }
        if (!inline_value) {
            if (a + 1 >= raw.size()) {
                bad(name + " needs a value");
                return flags;
            }
            value = raw[++a];
        }
        if (name == "--trace-out") {
            flags.traceOut = value;
        } else if (name == "--metrics-out") {
            flags.metricsOut = value;
        } else if (name == "--threads") {
            // Applied immediately: the worker pool sizes itself on
            // first use. Same-seed results are byte-identical at any
            // thread count, so this is purely a speed knob.
            try {
                exec::setThreadCount(exec::parseThreadCount(value));
            } catch (const FatalError &err) {
                bad(err.what());
                return flags;
            }
        } else if (value == "quiet") {
            setLogLevel(LogLevel::Quiet);
        } else if (value == "warn") {
            setLogLevel(LogLevel::Warn);
        } else if (value == "info") {
            setLogLevel(LogLevel::Inform);
        } else {
            bad("unknown log level '" + value +
                "' (want quiet, warn, or info)");
            return flags;
        }
    }
    raw.swap(kept);
    return flags;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> raw(argv + 1, argv + argc);
    const GlobalFlags flags = extractGlobalFlags(raw);
    if (!flags.ok)
        return usage();
    if (raw.empty())
        return usage();
    if (flags.timing)
        obs::setTimingEnabled(true);
    if (flags.spanTrace)
        obs::setSpanTracingEnabled(true);

    const std::string command = raw[0];

    // The trace subcommand owns its trace file (crash recovery must
    // truncate-and-append rather than start over), so --trace-out is
    // handed to it instead of being opened here.
    std::ofstream trace_file;
    std::optional<obs::TraceSink> sink;
    std::optional<obs::TraceGuard> guard;
    if (!flags.traceOut.empty() && command != "trace") {
        trace_file.open(flags.traceOut);
        if (!trace_file) {
            std::cerr << "cannot open trace output '" << flags.traceOut
                      << "'\n";
            return 1;
        }
        sink.emplace(trace_file);
        guard.emplace(*sink);
    }

    std::vector<std::string> args(raw.begin() + 1, raw.end());
    int status = 2;
    bool known = true;
    try {
        if (command == "solve")
            status = cmdSolve(args);
        else if (command == "check")
            status = cmdCheck(args);
        else if (command == "workloads")
            status = cmdWorkloads();
        else if (command == "profile")
            status = cmdProfile(args);
        else if (command == "simulate")
            status = cmdSimulate(args);
        else if (command == "example")
            status = cmdExample();
        else if (command == "trace")
            status = cmdTrace(args, flags.traceOut);
        else if (command == "stats")
            status = cmdStats(args);
        else
            known = false;
    } catch (const std::exception &err) {
        std::cerr << err.what() << "\n";
        status = 1;
    }
    if (!known)
        return usage();

    if (sink) {
        (void)sink->flush();
        // Surface any write/flush failure the run latched: a trace
        // that silently lost lines must not exit 0.
        if (Status st = sink->status(); !st.isOk()) {
            std::cerr << "trace output '" << flags.traceOut
                      << "': " << st.toString() << "\n";
            if (status == 0)
                status = 1;
        }
    }
    if (!flags.metricsOut.empty()) {
        std::ofstream out(flags.metricsOut);
        if (!out) {
            std::cerr << "cannot open metrics output '"
                      << flags.metricsOut << "'\n";
            return 1;
        }
        const bool text = flags.metricsOut.size() >= 4 &&
                          flags.metricsOut.compare(
                              flags.metricsOut.size() - 4, 4,
                              ".txt") == 0;
        Status wst = text ? obs::metrics().writeText(out)
                          : obs::metrics().writeJson(out);
        out.flush();
        if (wst.isOk() && !out.good())
            wst = Status::error(ErrorKind::IoError, 0,
                                "stream failed after final write");
        if (!wst.isOk()) {
            std::cerr << "metrics output '" << flags.metricsOut
                      << "': " << wst.toString() << "\n";
            if (status == 0)
                status = 1;
        }
    }
    return status;
}
