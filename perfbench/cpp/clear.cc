/**
 * @file
 * clear-1e5: one request turns a market file into a certified, rounded
 * allocation — core::loadMarket -> solveAmdahlBidding (default
 * options) -> verifyEquilibrium -> roundOutcome, the calls
 * `amdahl_market solve` makes — at 10^5 users x 1000 servers of 24
 * cores, 4 jobs per user, on 2 threads. Closed loop, one client: the
 * next request starts when the previous one returns.
 */

#include <fstream>
#include <optional>
#include <set>

#include "common/crc32.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "core/bidding.hh"
#include "core/market.hh"
#include "core/market_io.hh"
#include "core/rounding.hh"
#include "exec/parallelism.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace amdahl;

struct ClearSize
{
    int users = 100'000;
    int servers = 1000;
    int jobsPerUser = 4;
    double cores = 24.0;
};

constexpr int kThreads = 2;
constexpr int kSetupReps = 5;
/** Markets per run, each drawn from its own seed derived from --seed;
 *  one market's difficulty (its round count varies by ~25% across
 *  seeds) then does not decide a run's figures. */
constexpr int kMarkets = 3;
/** Seconds one request takes on the machine the benchmark was sized on
 *  (README.md); a run makes --seconds / this many requests. */
constexpr double kNominalRequestSeconds = 5.5;
/** Clearing and budget residuals must be within this. */
constexpr double kResidualTolerance = 1e-3;
/**
 * The relative optimality gap must be within this. At 10^5 users the
 * default price tolerance (1e-6) leaves a worst-user gap of 0.8e-3 to
 * 1.4e-3 depending on the seed, so EquilibriumCheck::pass(1e-3) — the
 * test `amdahl_market solve` applies — fails on about half the seeds;
 * see README.md.
 */
constexpr double kGapTolerance = 5e-3;

/**
 * The synthetic market of bench_scaling_users (budgets 1..5, f uniform
 * in [0.5, 0.999], w = 1, job 0 on server i % m so every server has a
 * bidder), except that a user's jobs sit on distinct servers, so the
 * file passes loadMarket's default duplicate-job check.
 */
core::FisherMarket
generateMarket(const ClearSize &size, std::uint64_t seed)
{
    Rng rng(seed);
    core::FisherMarket market(std::vector<double>(
        static_cast<std::size_t>(size.servers), size.cores));
    for (int i = 0; i < size.users; ++i) {
        core::MarketUser user;
        user.name = "user" + std::to_string(i);
        user.budget = static_cast<double>(rng.uniformInt(1, 5));
        std::set<std::size_t> used;
        for (int k = 0; k < size.jobsPerUser; ++k) {
            core::JobSpec job;
            job.server = static_cast<std::size_t>(i % size.servers);
            while (k > 0 && used.count(job.server) != 0) {
                job.server = static_cast<std::size_t>(
                    rng.uniformInt(0, size.servers - 1));
            }
            used.insert(job.server);
            job.parallelFraction = rng.uniform(0.5, 0.999);
            job.weight = 1.0;
            user.jobs.push_back(job);
        }
        market.addUser(std::move(user));
    }
    return market;
}

/** Everything one request produced, kept alive past its timing. */
struct Request
{
    double parse = 0.0, solve = 0.0, certificate = 0.0, rounding = 0.0;
    double total = 0.0;
    std::string parseError;
    std::optional<core::FisherMarket> market;
    core::BiddingResult result;
    core::EquilibriumCheck check;
    std::vector<std::vector<int>> rounded;
    Counters counters;
};

/** One request; spans are recorded when @p spans is non-null. */
Request
runRequest(const std::string &path, Spans *spans)
{
    Request req;
    const Counters before = counterSnapshot();
    const auto open = [&](const char *name, std::size_t parent) {
        return spans ? spans->begin(name, parent) : 0;
    };
    const auto close = [&](std::size_t id) {
        if (spans)
            spans->end(id);
    };

    const double t0 = nowSeconds();
    const std::size_t root = open("bench.request", 0);
    std::size_t span = open("core.parse", root);
    auto parsed = core::loadMarket(path);
    close(span);
    const double t1 = nowSeconds();
    if (!parsed.ok()) {
        close(root);
        req.parseError = parsed.status().toString();
        req.total = nowSeconds() - t0;
        return req;
    }
    req.market.emplace(parsed.take());

    span = open("core.solve", root);
    req.result = core::solveAmdahlBidding(*req.market);
    close(span);
    const double t2 = nowSeconds();

    span = open("core.certificate", root);
    req.check = core::verifyEquilibrium(*req.market, req.result);
    close(span);
    const double t3 = nowSeconds();

    span = open("core.rounding", root);
    req.rounded = core::roundOutcome(*req.market, req.result);
    close(span);
    close(root);
    const double t4 = nowSeconds();

    req.parse = t1 - t0;
    req.solve = t2 - t1;
    req.certificate = t3 - t2;
    req.rounding = t4 - t3;
    req.total = t4 - t0;
    req.counters = counterDelta(before, counterSnapshot());
    return req;
}

/** @return CRC over the prices and the rounded allocation. */
std::uint32_t
outputDigest(const Request &req)
{
    std::uint32_t crc = crc32Update(
        0, req.result.prices.data(),
        req.result.prices.size() * sizeof(double));
    for (const auto &row : req.rounded)
        crc = crc32Update(crc, row.data(), row.size() * sizeof(int));
    return crc;
}

/** Output checks of one request. @return true when it succeeded. */
bool
checkRequest(const Request &req, Report &report)
{
    if (!req.parseError.empty()) {
        report.check("parse_ok", false, req.parseError);
        return false;
    }
    report.check("parse_ok", true);
    const auto &market = *req.market;
    bool ok = true;

    const bool converged = req.result.converged;
    report.check("converged", converged,
                 "not converged after " +
                     std::to_string(req.result.iterations) + " rounds");
    ok = ok && converged;

    const bool cert =
        req.check.maxClearingResidual <= kResidualTolerance &&
        req.check.maxBudgetResidual <= kResidualTolerance &&
        req.check.maxOptimalityGap <= kGapTolerance;
    report.check("certificate_pass", cert,
                 "clearing " + std::to_string(req.check.maxClearingResidual) +
                     " budget " + std::to_string(req.check.maxBudgetResidual) +
                     " gap " + std::to_string(req.check.maxOptimalityGap));
    ok = ok && cert;

    std::vector<long long> load(market.serverCount(), 0);
    bool shaped = req.rounded.size() == market.userCount();
    for (std::size_t i = 0; shaped && i < market.userCount(); ++i) {
        const auto &jobs = market.user(i).jobs;
        shaped = req.rounded[i].size() == jobs.size();
        for (std::size_t k = 0; shaped && k < jobs.size(); ++k)
            load[jobs[k].server] += req.rounded[i][k];
    }
    bool sums = shaped;
    for (std::size_t j = 0; sums && j < load.size(); ++j)
        sums = static_cast<double>(load[j]) == market.capacity(j);
    report.check("rounded_sums_equal_capacity", sums);
    return ok && sums;
}

} // namespace

void
runClear(const RunOptions &opts, Report &report)
{
    ClearSize size;
    if (opts.smoke) {
        size.users = 2000;
        size.servers = 40;
    }
    std::vector<std::string> paths;
    for (int k = 0; k < kMarkets; ++k)
        paths.push_back(opts.workdir + "/market" + std::to_string(k) + ".txt");

    // Set-up: generate the markets and write them as files, repeated so
    // set-up time is reported as a median.
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double t0 = nowSeconds();
        for (int k = 0; k < kMarkets; ++k) {
            const auto market = generateMarket(
                size, deriveSeed(opts.seed, 1 + 100 * static_cast<unsigned>(k)));
            std::ofstream out(paths[k], std::ios::trunc);
            core::writeMarket(out, market);
            out.close();
            report.check("market_file_written", static_cast<bool>(out));
        }
        setup.push_back(nowSeconds() - t0);
    }
    exec::setThreadCount(kThreads);

    // Requests cycle through the markets. Untraced mode times every
    // request plainly; traced mode makes pairs of a plain and a traced
    // request on the same market, so the tracing overhead is measured
    // on the same work in the same process.
    Spans spans;
    std::vector<Request> plain, traced;
    std::vector<double> overhead; //!< Per pair: traced / plain - 1.
    double last_plain = 0.0;
    report.variants.assign(kMarkets, Variant{});
    const Budget budget(opts.seconds, kNominalRequestSeconds,
                        opts.trace ? 2 * kMarkets : kMarkets);
    for (int n = 0; budget.more(n); ++n) {
        const bool with_spans = opts.trace && n % 2 == 1;
        const auto k =
            static_cast<std::size_t>((opts.trace ? n / 2 : n) % kMarkets);
        Variant &variant = report.variants[k];
        Request req = runRequest(paths[k], with_spans ? &spans : nullptr);
        ++report.attempted;
        if (!checkRequest(req, report)) {
            ++report.failed;
            last_plain = 0.0;
            continue;
        }
        if (with_spans && last_plain > 0.0)
            overhead.push_back(req.total / last_plain - 1.0);
        last_plain = with_spans ? 0.0 : req.total;
        const std::string d = hex32(outputDigest(req));
        auto &digest = variant.digests["prices_rounded_crc32"];
        if (digest.empty()) {
            digest = d;
            variant.counters = req.counters;
        }
        report.check("digest_repeats", d == digest,
                     "request " + std::to_string(n) + " digest " + d +
                         " != " + digest);
        report.check("counters_repeat", req.counters == variant.counters,
                     "request " + std::to_string(n));
        report.check("net_counters_zero",
                     req.counters.count("net.msgs_sent") == 0);
        // Keep the timings; free the request's 10^5-user structures.
        req.market.reset();
        req.result = {};
        req.rounded.clear();
        (with_spans ? traced : plain).push_back(std::move(req));
    }

    if (plain.empty())
        return; // every request failed; nothing to time
    std::vector<double> totals;
    double busy = 0.0;
    for (const auto &r : plain) {
        totals.push_back(r.total * 1e3);
        busy += r.total;
    }
    report.samplesMs = totals;
    report.set("setup_s", median(setup), "s");
    report.set("request_ms_p50", median(totals), "ms");
    report.set("request_ms_p95", quantile(totals, 0.95), "ms");
    report.set("requests_per_s",
               busy > 0 ? static_cast<double>(plain.size()) / busy : 0.0,
               "1/s");
    report.set("peak_rss_mb", peakRssMb(), "MiB");
    if (!opts.trace || overhead.empty())
        return;

    const double jobs = static_cast<double>(size.users) *
                        static_cast<double>(size.jobsPerUser);
    std::vector<double> share, ns_per_bid;
    for (const auto &r : traced) {
        share.push_back((r.parse + r.certificate + r.rounding) / r.total);
        const double rounds =
            static_cast<double>(r.counters.at("bidding.iterations"));
        ns_per_bid.push_back(r.solve * 1e9 / (rounds * jobs));
    }
    // Counts are per request, averaged over the markets.
    const auto per_request = [&](const char *name) {
        double sum = 0.0;
        for (const Variant &v : report.variants) {
            const auto it = v.counters.find(name);
            sum += it == v.counters.end() ? 0.0
                                          : static_cast<double>(it->second);
        }
        return sum / kMarkets;
    };
    report.set("core.parse_s", median(spans.durations("core.parse")), "s");
    report.set("core.solve_s", median(spans.durations("core.solve")), "s");
    report.set("core.certificate_s",
               median(spans.durations("core.certificate")), "s");
    report.set("core.rounding_s",
               median(spans.durations("core.rounding")), "s");
    report.set("core.outside_loop_share", median(share), "ratio");
    report.set("core.ns_per_bid_round", median(ns_per_bid), "ns");
    report.set("core.rounds", per_request("bidding.iterations"), "count");
    report.set("solver.wf_solves", per_request("solver.wf.solves"), "count");
    report.set("exec.tasks", per_request("exec.tasks"), "count");
    const double n_traced = static_cast<double>(traced.size());
    for (const auto &[layer, secs] : spans.selfSecondsByLayer())
        report.set(layer + ".self_ms", secs * 1e3 / n_traced, "ms");
    report.set("trace.overhead_frac", median(overhead), "ratio");
    report.set("trace.spans", static_cast<double>(spans.spans().size()),
               "count");
    if (!opts.spansPath.empty())
        report.check("spans_written", spans.writeJson(opts.spansPath));
}

} // namespace perfbench
