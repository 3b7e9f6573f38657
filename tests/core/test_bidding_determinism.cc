/**
 * @file
 * Thread-count determinism of the market-clearing engine.
 *
 * The solver's contract (DESIGN.md §11): the thread count is a
 * performance knob, never a results knob. Every test here compares
 * with exact `==` — bids, prices, and allocations must be
 * *byte-identical* at 1, 2, and 8 threads, in the plain solve and
 * under every feature that interacts with the parallel fan-out
 * (bid-message loss, anytime deadlines, Gauss-Seidel, damping,
 * warm starts). A tolerance here would hide exactly the class of bug
 * the execution layer is designed against.
 *
 * Also pins the factored-sqrt agreement between the public
 * updateUserBids() and the solver's structure-of-arrays kernel: one
 * Synchronous round of the solver must reproduce, bit for bit, what
 * the reference function computes from the same posted prices.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.hh"
#include "common/random.hh"
#include "core/bidding.hh"
#include "core/bidding_kernel.hh"
#include "core/market.hh"
#include "exec/parallelism.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace.hh"

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

/** Users enough for four bid-update chunks, the last one partial, so
 *  the thread-count tests spread the update over the pool. The
 *  pinned-bytes tests keep the 96-user default. */
constexpr int kChunkedUsers = static_cast<int>(3 * detail::kUserGrain + 40);

/** A market with rows of 2-4 jobs over @p servers servers. */
FisherMarket
testMarket(int users = 96, int servers = 12)
{
    Rng rng(0xd15c0);
    std::vector<double> capacities(static_cast<std::size_t>(servers),
                                   16.0);
    FisherMarket market(std::move(capacities));
    for (int i = 0; i < users; ++i) {
        MarketUser user;
        user.name = "u" + std::to_string(i);
        user.budget = rng.uniform(0.5, 2.0);
        const int jobs = 1 + static_cast<int>(rng.uniformInt(1, 3));
        for (int k = 0; k < jobs; ++k) {
            JobSpec job;
            job.server = k == 0 ? static_cast<std::size_t>(i % servers)
                                : static_cast<std::size_t>(
                                      rng.uniformInt(0, servers - 1));
            job.parallelFraction = rng.uniform(0.3, 0.999);
            job.weight = rng.uniform(0.5, 2.0);
            user.jobs.push_back(job);
        }
        market.addUser(std::move(user));
    }
    return market;
}

/** Exact (bitwise) equality of two outcomes, with useful messages. */
void
expectIdentical(const BiddingResult &a, const BiddingResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.iterations, b.iterations) << what;
    EXPECT_EQ(a.converged, b.converged) << what;
    EXPECT_EQ(a.deadlineExpired, b.deadlineExpired) << what;
    ASSERT_EQ(a.prices.size(), b.prices.size()) << what;
    for (std::size_t j = 0; j < a.prices.size(); ++j)
        ASSERT_EQ(a.prices[j], b.prices[j])
            << what << ": price " << j;
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

/** Solve at a given thread count. */
BiddingResult
solveAt(int threads, const FisherMarket &market,
        const BiddingOptions &opts)
{
    ThreadGuard guard(threads);
    return solveAmdahlBidding(market, opts);
}

TEST(BiddingDeterminism, SynchronousSolveIsThreadCountIndependent)
{
    const auto market = testMarket(kChunkedUsers);
    BiddingOptions opts;
    const auto reference = solveAt(1, market, opts);
    EXPECT_TRUE(reference.converged);
    for (int threads : {2, 8}) {
        expectIdentical(solveAt(threads, market, opts), reference,
                        "threads=" + std::to_string(threads));
    }
}

TEST(BiddingDeterminism, LossFaultsAreThreadCountIndependent)
{
    // Loss decisions come from counter-based per-(user, round)
    // substreams, so the realization — and hence the whole solve — is
    // a pure function of the seed at any thread count.
    const auto market = testMarket(kChunkedUsers);
    BiddingOptions opts;
    opts.transport.lossRate = 0.3;
    opts.transport.seed = 0x10ad;
    const auto reference = solveAt(1, market, opts);
    for (int threads : {2, 8}) {
        expectIdentical(solveAt(threads, market, opts), reference,
                        "loss, threads=" + std::to_string(threads));
    }

    // Different seeds must produce different realizations (otherwise
    // the substreams are broken and the test above proves nothing).
    auto other = opts;
    other.transport.seed = 0xbeef;
    const auto different = solveAt(1, market, other);
    EXPECT_NE(different.iterations, 0);
    bool any_difference =
        different.iterations != reference.iterations;
    for (std::size_t i = 0; !any_difference && i < reference.bids.size();
         ++i) {
        any_difference = different.bids[i] != reference.bids[i];
    }
    EXPECT_TRUE(any_difference);
}

TEST(BiddingDeterminism, DeadlineBoundedSolveIsThreadCountIndependent)
{
    // The anytime iteration budget restores the best-so-far snapshot;
    // that snapshot selection must also be thread-count independent.
    const auto market = testMarket(kChunkedUsers);
    BiddingOptions opts;
    opts.deadline.iterationBudget = 3;
    const auto reference = solveAt(1, market, opts);
    EXPECT_TRUE(reference.deadlineExpired);
    for (int threads : {2, 8}) {
        expectIdentical(solveAt(threads, market, opts), reference,
                        "deadline, threads=" + std::to_string(threads));
    }
}

TEST(BiddingDeterminism, DampedAndWarmStartedSolvesAreThreadCountIndependent)
{
    const auto market = testMarket(48, 8);
    BiddingOptions damped;
    damped.damping = 0.7;
    const auto reference = solveAt(1, market, damped);
    expectIdentical(solveAt(8, market, damped), reference, "damped");

    BiddingOptions warm;
    warm.initialBids = reference.bids;
    expectIdentical(solveAt(8, market, warm),
                    solveAt(1, market, warm), "warm start");
}

TEST(BiddingDeterminism, TraceBytesAreThreadCountIndependent)
{
    const auto market = testMarket(kChunkedUsers);
    BiddingOptions opts;
    opts.transport.lossRate = 0.1;
    opts.transport.seed = 0x7ace;
    auto capture = [&](int threads) {
        std::ostringstream os;
        obs::TraceSink sink(os);
        obs::TraceGuard guard(sink);
        solveAt(threads, market, opts);
        return os.str();
    };
    const std::string reference = capture(1);
    EXPECT_NE(reference.find("\"ev\":\"bidding_iter\""),
              std::string::npos);
    for (int threads : {2, 8})
        EXPECT_EQ(capture(threads), reference)
            << "trace diverged at " << threads << " threads";
}

TEST(BiddingDeterminism, MetricsAreThreadCountIndependent)
{
    // Every counter the solve path touches must match across thread
    // counts: the registry counts work, never which thread ran it
    // (DESIGN.md §11).
    const auto market = testMarket(kChunkedUsers);
    BiddingOptions opts;
    opts.transport.lossRate = 0.2;
    opts.transport.seed = 0x5eed;
    auto counterSamples = [&](int threads) {
        obs::metrics().reset();
        solveAt(threads, market, opts);
        auto snapshot = obs::metrics().snapshot();
        std::vector<std::pair<std::string, std::uint64_t>> out;
        for (const auto &c : snapshot.counters)
            out.emplace_back(c.name, c.value);
        return out;
    };
    const auto reference = counterSamples(1);
    EXPECT_FALSE(reference.empty());
    for (int threads : {2, 8})
        EXPECT_EQ(counterSamples(threads), reference)
            << "counters diverged at " << threads << " threads";
}

/**
 * CRC-32 of a solve's trace (spans on) and of its result state, at
 * @p threads. Compared against digests recorded from an earlier build,
 * these pin the solver's bytes across refactors, not just against the
 * same build at another thread count.
 */
std::pair<std::uint32_t, std::uint32_t>
pinnedDigests(int threads, const FisherMarket &market,
              const BiddingOptions &opts)
{
    const bool previous = obs::setSpanTracingEnabled(true);
    std::ostringstream os;
    BiddingResult r;
    {
        obs::TraceSink sink(os);
        obs::TraceGuard guard(sink);
        r = solveAt(threads, market, opts);
    }
    obs::setSpanTracingEnabled(previous);
    Crc32 state;
    state.updateU64(static_cast<std::uint64_t>(r.iterations));
    state.updateU32(r.converged ? 1 : 0);
    state.updateU32(r.deadlineExpired ? 1 : 0);
    state.updateU64(static_cast<std::uint64_t>(r.accelAccepted));
    state.updateU64(static_cast<std::uint64_t>(r.accelRejected));
    for (double p : r.prices)
        state.updateF64(p);
    for (std::size_t i = 0; i < r.bids.size(); ++i) {
        state.updateU64(r.bids[i].size());
        for (std::size_t k = 0; k < r.bids[i].size(); ++k) {
            state.updateF64(r.bids[i][k]);
            state.updateF64(r.allocation[i][k]);
        }
    }
    return {crc32(os.str()), state.value()};
}

void
expectPinned(int threads, const FisherMarket &market,
             const BiddingOptions &opts, std::uint32_t trace,
             std::uint32_t state, const std::string &what)
{
    const auto [gotTrace, gotState] =
        pinnedDigests(threads, market, opts);
    EXPECT_EQ(gotTrace, trace)
        << what << ": trace crc 0x" << std::hex << gotTrace;
    EXPECT_EQ(gotState, state)
        << what << ": state crc 0x" << std::hex << gotState;
}

TEST(BiddingDeterminism, LossySchedulesMatchPinnedBytes)
{
    const auto market = testMarket();
    BiddingOptions sync;
    sync.transport.lossRate = 0.25;
    sync.transport.seed = 0x91;
    sync.deadline.iterationBudget = 60;
    for (int threads : {1, 4}) {
        expectPinned(threads, market, sync, 0x5cf048b0u, 0x3226401du,
                     "lossy threads=" + std::to_string(threads));
    }
}

TEST(BiddingDeterminism, AcceleratedSolveMatchesPinnedBytes)
{
    const auto market = testMarket();
    BiddingOptions opts;
    opts.accel.enabled = true;
    for (int threads : {1, 4}) {
        expectPinned(threads, market, opts, 0x9429b26fu, 0x1781c531u,
                     "accel threads=" + std::to_string(threads));
    }
}

TEST(BiddingDeterminism, KernelMatchesUpdateUserBidsExactly)
{
    // One Synchronous round, no damping: the solver's SoA kernel must
    // reproduce the reference per-user update bit for bit. This is
    // what licenses hoisting sqrt(f w) out of the iteration — both
    // paths use the factored propensity sqrt(f w) * sqrt(p) * s(x).
    const auto market = testMarket(32, 6);
    BiddingOptions opts;
    opts.maxIterations = 1;
    opts.priceTolerance = 1e-300; // never reached: exactly one round
    const auto one_round = solveAt(8, market, opts);

    // Reference: even-split bids, gather prices user-major, then the
    // public updateUserBids per user against those posted prices.
    const std::size_t n = market.userCount();
    const std::size_t m = market.serverCount();
    JobMatrix bids(n);
    std::vector<double> prices(m, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const MarketUser &user = market.user(i);
        const double even =
            user.budget / static_cast<double>(user.jobs.size());
        bids[i].assign(user.jobs.size(), even);
        for (std::size_t k = 0; k < user.jobs.size(); ++k)
            prices[user.jobs[k].server] += even;
    }
    for (std::size_t j = 0; j < m; ++j)
        prices[j] /= market.capacity(j);
    for (std::size_t i = 0; i < n; ++i)
        updateUserBids(market.user(i), prices, bids[i]);

    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(one_round.bids[i].size(), bids[i].size());
        for (std::size_t k = 0; k < bids[i].size(); ++k)
            ASSERT_EQ(one_round.bids[i][k], bids[i][k])
                << "user " << i << " job " << k;
    }
}

} // namespace
} // namespace amdahl::core
