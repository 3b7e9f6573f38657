/**
 * @file
 * User-scaling study of the bid-update kernel and the delta
 * re-clearing machinery (DESIGN.md §16).
 *
 * Four experiments over dense synthetic markets from 10^4 to 10^6
 * users (the datacenter regime of the paper's title — populations far
 * past the 40-1000 users of Section VI):
 *
 *  - `scaling_users`: ns/bid-update of the scalar reference kernel
 *    vs the AVX2 kernel (when the host supports it), with a bitwise
 *    identity verdict — the SIMD kernel must reproduce the scalar
 *    bids byte for byte — and one full fixed-iteration solve per
 *    size through the kernel the CPU picks.
 *  - `scaling_accel`: rounds to equilibrium of plain proportional
 *    response vs the Anderson-accelerated solver on contended
 *    markets. Round counts are deterministic (no timing).
 *  - `scaling_delta`: incremental re-clearing: rounds and wall time
 *    of a cold even-split clear vs a warm-started clear with a
 *    patched kernel cache at 0%, 1%, and 10% churn, plus the
 *    bitwise-invisibility verdict of the cache path (cache on vs
 *    cache off, same seed bids, must match exactly).
 *  - `scaling_roofline`: analytic bytes and flops per bid-update vs
 *    the achieved GB/s and GFLOP/s of the best kernel — a loose
 *    sanity bound, not a gated measurement.
 *
 * Scale knobs: AMDAHL_BENCH_SCALING_ITERS, AMDAHL_BENCH_REPS, and
 * AMDAHL_BENCH_SCALING_BIG=1 to add the 10^6-user point (seconds per
 * solve). Exit status is non-zero when any identity verdict fails.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "core/bidding.hh"
#include "core/bidding_kernel.hh"
#include "core/bidding_simd.hh"
#include "core/market.hh"
#include "exec/parallelism.hh"

namespace {

using namespace amdahl;

/** Dense synthetic market: every user bids on `jobsPerUser` servers,
 *  server i%m is forced so each server hosts at least one job. The
 *  first `churned` users get mutated budgets and parallel fractions
 *  (same structure — only values move), modeling tenant churn between
 *  two epochs of an online run. */
core::FisherMarket
syntheticMarket(int users, int servers, int jobsPerUser,
                std::uint64_t seed, int churned = 0)
{
    Rng rng(seed);
    std::vector<double> capacities(
        static_cast<std::size_t>(servers), 24.0);
    core::FisherMarket market(std::move(capacities));
    for (int i = 0; i < users; ++i) {
        core::MarketUser user;
        user.name = "user" + std::to_string(i);
        user.budget = static_cast<double>(rng.uniformInt(1, 5));
        const bool mutate = i < churned;
        if (mutate) {
            user.budget =
                1.0 + static_cast<double>(
                          (static_cast<int>(user.budget)) % 5);
        }
        for (int k = 0; k < jobsPerUser; ++k) {
            core::JobSpec job;
            job.server =
                k == 0 ? static_cast<std::size_t>(i % servers)
                       : static_cast<std::size_t>(
                             rng.uniformInt(0, servers - 1));
            job.parallelFraction = rng.uniform(0.5, 0.999);
            if (mutate)
                job.parallelFraction = 1.499 - job.parallelFraction;
            job.weight = 1.0;
            user.jobs.push_back(job);
        }
        market.addUser(std::move(user));
    }
    return market;
}

bool
sameMatrix(const core::JobMatrix &a, const core::JobMatrix &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) // exact: the contract is byte-identity
            return false;
    }
    return true;
}

bool
sameResult(const core::BiddingResult &a, const core::BiddingResult &b)
{
    return a.prices == b.prices && sameMatrix(a.bids, b.bids) &&
           sameMatrix(a.allocation, b.allocation);
}

/** Best-of-reps wall time of one solve configuration. */
template <typename Solve>
double
bestSeconds(int reps, core::BiddingResult &out, Solve &&solve)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        out = solve();
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (r == 0 || seconds < best)
            best = seconds;
    }
    return best;
}

int
serversFor(int users)
{
    return std::clamp(users / 100, 64, 1000);
}

} // namespace

int
main()
{
    bench::printHeader(
        "Scaling: users (bid kernel, acceleration, delta re-clearing)",
        "Clearing cost from 10^4 to 10^6 users: SIMD vs scalar "
        "kernel (byte-identical), Anderson-accelerated round counts, "
        "and incremental re-clearing under churn");

    const int iterations =
        bench::envInt("AMDAHL_BENCH_SCALING_ITERS", 20);
    const int reps = bench::envInt("AMDAHL_BENCH_REPS", 3);
    const int jobs_per_user = 4;
    constexpr std::uint64_t kSeed = 0xa3da41dceaULL;

    std::vector<int> sizes{10'000, 100'000};
    if (bench::envInt("AMDAHL_BENCH_SCALING_BIG", 0) > 0)
        sizes.push_back(1'000'000);

    const bool simd_available = core::detail::simdKernelSupported();
    const int previous_threads = exec::setThreadCount(1);
    bool all_identical = true;

    // ---- 1. Kernel throughput: scalar vs SIMD, byte-identical. ----
    TablePrinter kernels;
    kernels.addColumn("users");
    kernels.addColumn("kernel", TablePrinter::Align::Left);
    kernels.addColumn("update (ms)");
    kernels.addColumn("ns/bid-update");
    kernels.addColumn("Mupdates/sec");
    kernels.addColumn("speedup");
    kernels.addColumn("solve (ms)");
    kernels.addColumn("identical", TablePrinter::Align::Left);

    std::vector<double> best_update_ns;
    for (const int users : sizes) {
        const auto market = syntheticMarket(
            users, serversFor(users), jobs_per_user, kSeed + users);
        core::BiddingOptions opts;
        // Effectively unreachable tolerance: every run performs
        // exactly `iterations` rounds, so both kernels do identical
        // work and the results can be compared bit for bit.
        opts.priceTolerance = 1e-300;
        opts.maxIterations = iterations;

        const double updates =
            static_cast<double>(users) *
            static_cast<double>(jobs_per_user) *
            static_cast<double>(iterations);

        // The bid-update phase in isolation: the solver's exact call
        // pattern (chunks of kUserGrain users against fixed posted
        // prices), minus the price gather and convergence test. Each
        // row drives one kernel directly, so neither depends on the
        // CPU's pick. Bids restart from the even split before every
        // rep so each rep performs identical work, and both kernels
        // end on the same rounds — their bids must then agree bit
        // for bit.
        const auto built = core::detail::buildKernel(market);
        core::JobMatrix seed_bids;
        core::detail::initializeBids(market, opts, seed_bids);
        std::vector<double> posted(built.serverCount);
        {
            auto seeded = built;
            core::detail::flattenBids(seed_bids, seeded);
            core::detail::gatherPrices(seeded, posted);
        }
        const std::size_t n = built.userCount;
        const std::size_t grain = core::detail::kUserGrain;
        auto update_seconds = [&](core::detail::BidKernel &kernel,
                                  auto &&update_chunk) {
            double best = 0.0;
            for (int r = 0; r < reps; ++r) {
                core::detail::flattenBids(seed_bids, kernel);
                const auto start = std::chrono::steady_clock::now();
                for (int it = 0; it < iterations; ++it) {
                    for (std::size_t u = 0; u < n; u += grain)
                        update_chunk(kernel, u, std::min(n, u + grain));
                }
                const double seconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                if (r == 0 || seconds < best)
                    best = seconds;
            }
            return best;
        };

        auto scalar_kernel = built;
        const double scalar_update = update_seconds(
            scalar_kernel, [&](core::detail::BidKernel &kernel,
                               std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    core::detail::updateOneUser(kernel, i, posted,
                                                opts.damping);
            });
        core::BiddingResult solved;
        const double solve_seconds = bestSeconds(reps, solved, [&] {
            return core::solveAmdahlBidding(market, opts);
        });
        kernels.beginRow()
            .cell(users)
            .cell("scalar")
            .cell(scalar_update * 1e3, 2)
            .cell(scalar_update * 1e9 / updates, 2)
            .cell(updates / scalar_update / 1e6, 1)
            .cell(1.0, 2)
            .cell(solve_seconds * 1e3, 2)
            .cell("ref");
        double best_seconds = scalar_update;

        if (simd_available) {
            auto simd_kernel = built;
            const double simd_update = update_seconds(
                simd_kernel, [&](core::detail::BidKernel &kernel,
                                 std::size_t lo, std::size_t hi) {
                    core::detail::updateUsersRangeSimd(
                        kernel, lo, hi, posted, opts.damping);
                });
            const bool identical =
                simd_kernel.bids == scalar_kernel.bids;
            all_identical = all_identical && identical;
            kernels.beginRow()
                .cell(users)
                .cell("simd")
                .cell(simd_update * 1e3, 2)
                .cell(simd_update * 1e9 / updates, 2)
                .cell(updates / simd_update / 1e6, 1)
                .cell(scalar_update / simd_update, 2)
                .cell("-")
                .cell(identical ? "yes" : "NO");
            best_seconds = std::min(best_seconds, simd_update);
        }
        best_update_ns.push_back(best_seconds * 1e9 / updates);
    }
    bench::emitTable(kernels, "scaling_users");
    std::cout << "\nns/bid-update counts one proportional-response "
                 "update of one (user, job) bid through the named "
                 "kernel alone (the solver's chunked call pattern "
                 "against fixed posted prices). The identity verdict "
                 "compares the two kernels' bids after the timed "
                 "rounds bit for bit. solve (ms) is one full "
                 "fixed-iteration solve per size, including the "
                 "price gather and convergence test, through the "
                 "kernel the CPU picks. Best of " << reps
              << " reps, 1 thread. "
              << (simd_available
                      ? "SIMD rows use the AVX2 kernel."
                      : "This host has no AVX2; scalar rows only.")
              << "\n\n";
    bench::emitJson(kernels, "scaling_users");

    // ---- 2. Anderson acceleration: deterministic round counts. ----
    TablePrinter accel;
    accel.addColumn("users");
    accel.addColumn("plain rounds");
    accel.addColumn("accel rounds");
    accel.addColumn("accepted");
    accel.addColumn("rejected");
    accel.addColumn("reduction");
    accel.addColumn("agree", TablePrinter::Align::Left);

    bool accel_always_fewer = true;
    for (const int users : {1024, 4096, 16384}) {
        const auto market = syntheticMarket(
            users, serversFor(users), jobs_per_user, kSeed + users);
        core::BiddingOptions plain;
        plain.priceTolerance = 1e-7;
        plain.maxIterations = 5000;
        core::BiddingOptions accelerated = plain;
        accelerated.accel.enabled = true;

        const auto base = core::solveAmdahlBidding(market, plain);
        const auto fast =
            core::solveAmdahlBidding(market, accelerated);

        // Both must land on the same equilibrium to solver
        // tolerance; the trajectories differ, so this is a relative
        // price comparison, not a bitwise one.
        bool agree = base.converged && fast.converged &&
                     base.prices.size() == fast.prices.size();
        for (std::size_t j = 0; agree && j < base.prices.size();
             ++j) {
            const double rel =
                std::abs(base.prices[j] - fast.prices[j]) /
                std::max(1e-300, std::abs(base.prices[j]));
            agree = rel <= 1e-4;
        }
        all_identical = all_identical && agree;
        accel_always_fewer =
            accel_always_fewer && fast.iterations < base.iterations;

        accel.beginRow()
            .cell(users)
            .cell(base.iterations)
            .cell(fast.iterations)
            .cell(fast.accelAccepted)
            .cell(fast.accelRejected)
            .cell(formatDouble(
                      100.0 *
                          (1.0 -
                           static_cast<double>(fast.iterations) /
                               static_cast<double>(base.iterations)),
                      1) +
                  "%")
            .cell(agree ? "yes" : "NO");
    }
    bench::emitTable(accel, "scaling_accel");
    std::cout << "\nRounds to a 1e-7 relative price tolerance; "
                 "counts are deterministic (no timing). "
              << (accel_always_fewer
                      ? "Acceleration reduced the round count on "
                        "every scenario."
                      : "WARNING: acceleration did not reduce rounds "
                        "on some scenario.")
              << "\n\n";
    bench::emitJson(accel, "scaling_accel");

    // ---- 3. Delta re-clearing under churn. ----
    TablePrinter delta;
    delta.addColumn("churn");
    delta.addColumn("cold rounds");
    delta.addColumn("warm rounds");
    delta.addColumn("mean-field rounds");
    delta.addColumn("reduction");
    delta.addColumn("patched users");
    delta.addColumn("cold (ms)");
    delta.addColumn("delta (ms)");
    delta.addColumn("cache identical", TablePrinter::Align::Left);

    {
        const int users = 10'000;
        const int servers = serversFor(users);
        const auto base = syntheticMarket(users, servers,
                                          jobs_per_user, kSeed);
        core::BiddingOptions opts;
        opts.priceTolerance = 1e-7;
        opts.maxIterations = 5000;

        // Warm the cache and produce the "previous equilibrium".
        core::KernelCache cache;
        core::BiddingOptions warm_opts = opts;
        warm_opts.kernelCache = &cache;
        const auto equilibrium =
            core::solveAmdahlBidding(base, warm_opts);

        for (const int churn_pct : {0, 1, 10}) {
            const int churned = users * churn_pct / 100;
            const auto mutated = syntheticMarket(
                users, servers, jobs_per_user, kSeed, churned);

            // Cold clear: even-split start, fresh kernel.
            core::BiddingResult cold;
            const double cold_seconds =
                bestSeconds(reps, cold, [&] {
                    return core::solveAmdahlBidding(mutated, opts);
                });

            // The sound path: same even-split start *through the
            // cache* (structure reused, churned rows patched) must be
            // byte-identical to the cold clear.
            const std::uint64_t patched_before = cache.patchedUsers;
            core::BiddingOptions cached_opts = opts;
            cached_opts.kernelCache = &cache;
            const auto via_cache =
                core::solveAmdahlBidding(mutated, cached_opts);
            const bool identical = sameResult(via_cache, cold);
            all_identical = all_identical && identical;

            // Warm start from the previous equilibrium, cache kept.
            core::BiddingOptions delta_opts = cached_opts;
            delta_opts.initialBids = equilibrium.bids;
            core::BiddingResult warm;
            const double delta_seconds =
                bestSeconds(reps, warm, [&] {
                    return core::solveAmdahlBidding(mutated,
                                                    delta_opts);
                });

            // The cold-start fallback eval/online uses above the
            // churn threshold: the analytic mean-field seed.
            core::BiddingOptions mf_opts = cached_opts;
            mf_opts.initialBids = core::meanFieldSeedBids(mutated);
            const auto mf =
                core::solveAmdahlBidding(mutated, mf_opts);

            delta.beginRow()
                .cell(std::to_string(churn_pct) + "%")
                .cell(cold.iterations)
                .cell(warm.iterations)
                .cell(mf.iterations)
                .cell(formatDouble(
                          100.0 *
                              (1.0 -
                               static_cast<double>(
                                   warm.iterations) /
                                   static_cast<double>(
                                       cold.iterations)),
                          1) +
                      "%")
                .cell(static_cast<long long>(cache.patchedUsers -
                                             patched_before))
                .cell(cold_seconds * 1e3, 2)
                .cell(delta_seconds * 1e3, 2)
                .cell(identical ? "yes" : "NO");
        }
    }
    bench::emitTable(delta, "scaling_delta");
    std::cout << "\n'cache identical' compares the even-split solve "
                 "through the patched kernel cache against a fresh "
                 "build, bit for bit (the cache is bitwise "
                 "invisible). Warm rounds start from the previous "
                 "equilibrium's bids — fewer rounds, different (but "
                 "equally valid) low-order bits.\n\n";
    bench::emitJson(delta, "scaling_delta");

    // ---- 4. Roofline-style accounting for the best kernel. ----
    // Analytic per-update traffic of one bid update, counting the
    // propensity row (index + gathered price + bid + fraction +
    // sqrtFw reads, scratch write), the serial fold, the normalize
    // pass, and the price gather: ~96 bytes and ~13 flops (div and
    // sqrt counted once each). These are estimates for orientation —
    // the gated signal is ns/bid-update above.
    TablePrinter roofline;
    roofline.addColumn("users");
    roofline.addColumn("bytes/update");
    roofline.addColumn("flops/update");
    roofline.addColumn("achieved GB/s");
    roofline.addColumn("achieved GFLOP/s");
    roofline.addColumn("ns/update");
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const double ns = best_update_ns[i];
        roofline.beginRow()
            .cell(sizes[i])
            .cell(96)
            .cell(13)
            .cell(96.0 / ns, 2)
            .cell(13.0 / ns, 2)
            .cell(ns, 2);
    }
    bench::emitTable(roofline, "scaling_roofline");
    std::cout << "\n\n";
    bench::emitJson(roofline, "scaling_roofline");

    exec::setThreadCount(previous_threads);

    eval::ExperimentDriver::Config cfg;
    cfg.seed = static_cast<std::uint64_t>(kSeed);
    cfg.populationsPerPoint = reps;
    cfg.users = sizes.back();
    bench::emitMetrics("scaling_users", cfg);

    if (!all_identical) {
        std::cout << "IDENTITY VIOLATION: see the verdict columns "
                     "above.\n";
        return 1;
    }
    return 0;
}
