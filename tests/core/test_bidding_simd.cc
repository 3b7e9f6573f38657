/**
 * @file
 * The bid-update kernel contract: scalar/SIMD bit-identity, thread
 * invariance, Anderson acceleration, the kernel cache, and the
 * mean-field warm start.
 *
 * The load-bearing claims (DESIGN.md §16), each pinned here with
 * exact `==` where the contract is bitwise:
 *
 *  - The solve is byte-identical at every thread count.
 *  - The AVX2 kernel (on CPUs that support it) reproduces the scalar
 *    kernel bit for bit through a direct kernel-level update, damped
 *    and undamped, on ragged rows, on rows wide enough to spill its
 *    stack buffer, and on degenerate inputs. The whole-solve check
 *    is the sharded bridge (tests/net/test_sharded_bidding.cc): the
 *    sharded exchange always runs the scalar update, so on AVX2 hosts
 *    it compares a scalar solve against a SIMD one.
 *  - The kernel cache is a pure structural cache: solving through a
 *    warmed (even cross-market patched) cache returns the same bytes
 *    as solving fresh.
 *  - Anderson acceleration converges in fewer rounds to the same
 *    equilibrium (within tolerance — acceleration legitimately
 *    changes low-order bits) and is self-reproducing.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/bidding.hh"
#include "core/bidding_kernel.hh"
#include "core/bidding_simd.hh"
#include "core/market.hh"
#include "exec/parallelism.hh"

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

/**
 * A market whose user fan-out spans several chunks, with ragged rows
 * (1-4 jobs) and mixed parallel fractions. `mutateFirst` perturbs the
 * values (budgets, weights, fractions) of the first N users while
 * keeping the structure — the bench's churn model, used here to
 * exercise the kernel cache's patch path.
 */
FisherMarket
testMarket(int users = 96, int servers = 12,
           std::uint64_t seed = 0x51b7d, int mutateFirst = 0)
{
    Rng rng(seed);
    std::vector<double> capacities(static_cast<std::size_t>(servers),
                                   16.0);
    FisherMarket market(std::move(capacities));
    for (int i = 0; i < users; ++i) {
        MarketUser user;
        user.name = "u" + std::to_string(i);
        user.budget = rng.uniform(0.5, 2.0);
        if (i < mutateFirst)
            user.budget *= 1.5;
        const int jobs = 1 + static_cast<int>(rng.uniformInt(0, 3));
        for (int k = 0; k < jobs; ++k) {
            JobSpec job;
            job.server = static_cast<std::size_t>(
                rng.uniformInt(0, servers - 1));
            job.parallelFraction = rng.uniform(0.05, 0.999);
            job.weight = rng.uniform(0.5, 2.0);
            if (i < mutateFirst)
                job.weight *= 0.8;
            user.jobs.push_back(job);
        }
        market.addUser(std::move(user));
    }
    return market;
}

/**
 * Rows of 80 jobs: one kPriceBlockUsers sub-range — the unit the SIMD
 * kernel walks a chunk in — holds 2560 jobs, more than its 2048-job
 * stack buffer, so the kernel's spill to kernel.scratch runs.
 */
FisherMarket
wideMarket(int users = 64, int jobsPerUser = 80, int servers = 24)
{
    Rng rng(0x3a1de);
    std::vector<double> capacities(static_cast<std::size_t>(servers),
                                   16.0);
    FisherMarket market(std::move(capacities));
    for (int i = 0; i < users; ++i) {
        MarketUser user;
        user.name = "w" + std::to_string(i);
        user.budget = rng.uniform(0.5, 2.0);
        for (int k = 0; k < jobsPerUser; ++k) {
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

/** Exact (bitwise) equality of two outcomes. */
void
expectIdentical(const BiddingResult &a, const BiddingResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.iterations, b.iterations) << what;
    EXPECT_EQ(a.converged, b.converged) << what;
    ASSERT_EQ(a.prices.size(), b.prices.size()) << what;
    for (std::size_t j = 0; j < a.prices.size(); ++j)
        ASSERT_EQ(a.prices[j], b.prices[j]) << what << ": price " << j;
    ASSERT_EQ(a.bids.size(), b.bids.size()) << what;
    for (std::size_t i = 0; i < a.bids.size(); ++i) {
        ASSERT_EQ(a.bids[i].size(), b.bids[i].size()) << what;
        for (std::size_t k = 0; k < a.bids[i].size(); ++k) {
            ASSERT_EQ(a.bids[i][k], b.bids[i][k])
                << what << ": bid (" << i << "," << k << ")";
            ASSERT_EQ(a.allocation[i][k], b.allocation[i][k])
                << what << ": allocation (" << i << "," << k << ")";
        }
    }
}

/** Max relative price disagreement between two outcomes. */
double
priceDisagreement(const BiddingResult &a, const BiddingResult &b)
{
    double worst = 0.0;
    for (std::size_t j = 0; j < a.prices.size(); ++j) {
        const double scale = std::max(a.prices[j], 1e-12);
        worst = std::max(worst,
                         std::abs(a.prices[j] - b.prices[j]) / scale);
    }
    return worst;
}

// ---------------------------------------------------------------------
// Byte-identity across performance knobs.

TEST(BidKernelIdentity, SolveIsGrainAndThreadIndependent)
{
    // The grain is the fixed kUserGrain chunk layout; threads only
    // change which worker runs which chunk (four chunks here).
    const auto market =
        testMarket(static_cast<int>(3 * detail::kUserGrain + 40));
    BiddingOptions opts;
    const auto reference = solveAmdahlBidding(market, opts);
    EXPECT_TRUE(reference.converged);

    for (const int threads : {1, 4}) {
        ThreadGuard t(threads);
        expectIdentical(solveAmdahlBidding(market, opts), reference,
                        "threads=" + std::to_string(threads));
    }
}

/**
 * Three rounds of scalar vs SIMD updates of @p market in chunks of
 * @p chunk users against the same posted prices, damped and undamped;
 * the bids must agree bit for bit after every round.
 */
void
expectSimdUpdateMatchesScalar(const FisherMarket &market,
                              std::size_t chunk)
{
    for (const double damping : {1.0, 0.7}) {
        auto a = detail::buildKernel(market);
        BiddingOptions opts;
        JobMatrix seed;
        detail::initializeBids(market, opts, seed);
        detail::flattenBids(seed, a);
        std::vector<double> posted(a.serverCount);
        detail::gatherPrices(a, posted);
        auto b = a;

        for (int round = 0; round < 3; ++round) {
            for (std::size_t u = 0; u < a.userCount; u += chunk) {
                const std::size_t hi =
                    std::min(a.userCount, u + chunk);
                for (std::size_t i = u; i < hi; ++i)
                    detail::updateOneUser(a, i, posted, damping);
                detail::updateUsersRangeSimd(b, u, hi, posted,
                                             damping);
            }
            ASSERT_EQ(a.bids, b.bids)
                << "chunk=" << chunk << " damping=" << damping
                << " round=" << round;
            detail::gatherPrices(a, posted);
        }
    }
}

TEST(BidKernelIdentity, SimdKernelUpdateMatchesScalarDirectly)
{
#if defined(__x86_64__)
    // A wrong preprocessor guard in bidding_simd.cc would silently
    // make every build scalar (and skip this test); the CPU's own
    // answer pins it.
    ASSERT_EQ(detail::simdKernelSupported(),
              __builtin_cpu_supports("avx2") != 0);
#endif
    if (!detail::simdKernelSupported())
        GTEST_SKIP() << "no AVX2 on this CPU";
    // Kernel-level comparison, no solver in the loop: same built
    // kernel, same posted prices, scalar vs SIMD update of every
    // chunk shape the fan-out can produce — including rows longer
    // than one vector, scalar tails, a damped blend, and chunks too
    // wide for the kernel's stack buffer.
    expectSimdUpdateMatchesScalar(testMarket(67, 9, 0xbeef), 5);

    const auto wide = wideMarket();
    ASSERT_GT(
        detail::buildKernel(wide).userOffset[detail::kPriceBlockUsers],
        2048u)
        << "the wide input's first block must overflow the stack buffer";
    expectSimdUpdateMatchesScalar(wide, detail::kUserGrain);
}

// ---------------------------------------------------------------------
// Kernel cache: a pure structural cache, bitwise invisible.

TEST(KernelCache, RepeatSolvesThroughTheCacheAreIdentical)
{
    const auto market = testMarket();
    BiddingOptions plain;
    const auto fresh = solveAmdahlBidding(market, plain);

    KernelCache cache;
    BiddingOptions cached = plain;
    cached.kernelCache = &cache;
    expectIdentical(solveAmdahlBidding(market, cached), fresh,
                    "first solve through cache");
    EXPECT_EQ(cache.rebuilds, 1u);
    expectIdentical(solveAmdahlBidding(market, cached), fresh,
                    "second solve through cache");
    EXPECT_EQ(cache.rebuilds, 1u);
    EXPECT_GE(cache.reuses, 1u);
}

TEST(KernelCache, PatchedReuseMatchesAFreshBuild)
{
    // Same structure, different budgets/weights: the cache patches
    // the changed user rows instead of rebuilding, and the result
    // must equal a cache-free solve of the mutated market.
    const auto market = testMarket();
    KernelCache cache;
    BiddingOptions cached;
    cached.kernelCache = &cache;
    (void)solveAmdahlBidding(market, cached);

    const auto mutated = testMarket(96, 12, 0x51b7d, 12);
    const auto fresh = solveAmdahlBidding(mutated, BiddingOptions{});
    expectIdentical(solveAmdahlBidding(mutated, cached), fresh,
                    "patched cache vs fresh");
    EXPECT_EQ(cache.rebuilds, 1u);
    EXPECT_GT(cache.patchedUsers, 0u);
}

TEST(KernelCache, StructuralChangeRebuildsAndStaysCorrect)
{
    KernelCache cache;
    BiddingOptions cached;
    cached.kernelCache = &cache;
    (void)solveAmdahlBidding(testMarket(96, 12), cached);

    const auto other = testMarket(64, 8, 0x77);
    const auto fresh = solveAmdahlBidding(other, BiddingOptions{});
    expectIdentical(solveAmdahlBidding(other, cached), fresh,
                    "rebuilt cache vs fresh");
    EXPECT_EQ(cache.rebuilds, 2u);
}

// ---------------------------------------------------------------------
// Anderson acceleration.

BiddingOptions
accelOptions()
{
    BiddingOptions opts;
    opts.priceTolerance = 1e-7;
    opts.maxIterations = 5000;
    opts.accel.enabled = true;
    return opts;
}

TEST(Acceleration, ConvergesInFewerRoundsToTheSameEquilibrium)
{
    const auto market = testMarket(256, 6);
    BiddingOptions plain;
    plain.priceTolerance = 1e-7;
    plain.maxIterations = 5000;
    const auto slow = solveAmdahlBidding(market, plain);
    ASSERT_TRUE(slow.converged);

    const auto fast = solveAmdahlBidding(market, accelOptions());
    ASSERT_TRUE(fast.converged);
    EXPECT_LT(fast.iterations, slow.iterations / 2);
    EXPECT_GT(fast.accelAccepted, 0);
    EXPECT_LT(priceDisagreement(fast, slow), 1e-4);
}

TEST(Acceleration, IsSelfReproducing)
{
    const auto market = testMarket(128, 6);
    const auto first = solveAmdahlBidding(market, accelOptions());
    const auto second = solveAmdahlBidding(market, accelOptions());
    expectIdentical(second, first, "accel repeat");
    EXPECT_EQ(first.accelAccepted, second.accelAccepted);
    EXPECT_EQ(first.accelRejected, second.accelRejected);
}

TEST(Acceleration, IsThreadAndGrainIndependent)
{
    const auto market = testMarket(128, 6);
    const auto reference = solveAmdahlBidding(market, accelOptions());
    for (const int threads : {1, 4}) {
        ThreadGuard t(threads);
        expectIdentical(solveAmdahlBidding(market, accelOptions()),
                        reference,
                        "accel threads=" + std::to_string(threads));
    }
}

TEST(Acceleration, OffPathIsUntouched)
{
    // accel.enabled=false must be byte-identical to a default-options
    // solve: the feature off is indistinguishable from the feature
    // not existing.
    const auto market = testMarket();
    BiddingOptions off;
    off.accel.depth = 5; // Ignored while disabled.
    expectIdentical(solveAmdahlBidding(market, off),
                    solveAmdahlBidding(market, BiddingOptions{}),
                    "accel disabled");
}

TEST(Acceleration, ValidatesItsOptions)
{
    const auto market = testMarket(8, 2);
    auto bad = accelOptions();
    bad.accel.depth = 0;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
    bad = accelOptions();
    bad.accel.depth = 9;
    EXPECT_THROW(solveAmdahlBidding(market, bad), FatalError);
}

// ---------------------------------------------------------------------
// Mean-field warm start.

TEST(MeanFieldSeed, IsDeterministicPositiveAndWellShaped)
{
    const auto market = testMarket();
    const JobMatrix seed = meanFieldSeedBids(market);
    ASSERT_EQ(seed.size(), market.userCount());
    for (std::size_t i = 0; i < seed.size(); ++i) {
        ASSERT_EQ(seed[i].size(), market.user(i).jobs.size());
        for (const double bid : seed[i])
            EXPECT_GT(bid, 0.0);
    }
    EXPECT_EQ(meanFieldSeedBids(market), seed);
}

TEST(MeanFieldSeed, SeededSolveReachesTheSameEquilibrium)
{
    const auto market = testMarket(128, 6);
    BiddingOptions cold;
    cold.priceTolerance = 1e-8;
    cold.maxIterations = 20000;
    const auto reference = solveAmdahlBidding(market, cold);
    ASSERT_TRUE(reference.converged);

    BiddingOptions seeded = cold;
    seeded.initialBids = meanFieldSeedBids(market);
    const auto warm = solveAmdahlBidding(market, seeded);
    ASSERT_TRUE(warm.converged);
    EXPECT_LT(priceDisagreement(warm, reference), 1e-5);
}

} // namespace
} // namespace amdahl::core
