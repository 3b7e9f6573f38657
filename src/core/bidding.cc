#include "bidding.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>

#include "common/check.hh"
#include "common/invariants.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/amdahl.hh"
#include "core/bidding_kernel.hh"
#include "core/bidding_simd.hh"
#include "exec/thread_pool.hh"
#include "net/options.hh"
#include "obs/metrics.hh"
#include "obs/timer.hh"
#include "obs/trace.hh"

namespace amdahl::core {

namespace {

/** Anderson's Tikhonov regularization scale for the normal
 *  equations, relative to the Gram matrix trace. */
constexpr double kAndersonRidge = 1e-10;

/**
 * Cap on the l1 norm of Anderson's mixing weights (gamma is rescaled
 * when it exceeds this). Near the fixed point the residual window
 * becomes nearly collinear and the unconstrained least-squares
 * extrapolation factor grows like 1/(1 - rate) — thousands for a
 * slowly-mixing market — landing the candidate far outside the
 * locally-linear region, where it is rejected every round and the
 * acceleration stalls. Bounding the weights trades one giant
 * (useless) jump for a sequence of large (accepted) ones; empirically
 * tens of times fewer rounds than plain proportional response on
 * contended markets.
 */
constexpr double kAndersonMaxMixWeight = 30.0;

/**
 * Anderson acceleration state over the proportional-response map
 * (DESIGN.md §16). Keeps the updates g(x) of up to depth+1 iterates
 * with their residuals f = g(x) - x and the residual Gram matrix
 * G[a][b] = <f_a, f_b>, maintained incrementally so each round costs
 * one new row of dot products. The proposal mixes updates only, so
 * the iterates themselves are not kept. All reductions are strict
 * serial left folds — the accelerated trajectory is as reproducible
 * as the plain one.
 */
struct AndersonState
{
    int depth;
    std::deque<std::vector<double>> gs;
    std::deque<std::vector<double>> fs; // residuals g - x
    std::deque<std::vector<double>> gram;

    void
    push(const std::vector<double> &x, const std::vector<double> &g)
    {
        const std::size_t jobs = x.size();
        std::vector<double> f(jobs);
        for (std::size_t e = 0; e < jobs; ++e)
            f[e] = g[e] - x[e];

        // New Gram row: <f_new, f_a> for every kept residual + self.
        std::vector<double> row(fs.size() + 1, 0.0);
        for (std::size_t a = 0; a < fs.size(); ++a) {
            double dot = 0.0;
            const std::vector<double> &fa = fs[a];
            for (std::size_t e = 0; e < jobs; ++e)
                dot += f[e] * fa[e];
            row[a] = dot;
            gram[a].push_back(dot);
        }
        double self = 0.0;
        for (std::size_t e = 0; e < jobs; ++e)
            self += f[e] * f[e];
        row.back() = self;
        gram.push_back(std::move(row));

        gs.push_back(g);
        fs.push_back(std::move(f));

        const std::size_t cap = static_cast<std::size_t>(depth) + 1;
        if (gs.size() > cap) {
            gs.pop_front();
            fs.pop_front();
            gram.pop_front();
            for (auto &r : gram)
                r.erase(r.begin());
        }
    }

    /**
     * The least-squares mixing proposal: minimize
     * ||f_last + sum_i gamma_i (f_i - f_last)|| over the window,
     * Tikhonov-regularized, solved by partially pivoted Gaussian
     * elimination on the (at most depth x depth) normal equations.
     * @return false when the window is too short or the system is
     * numerically degenerate — the caller then serves the plain step.
     */
    bool
    proposal(std::vector<double> &out) const
    {
        const std::size_t k = fs.size();
        if (k < 2)
            return false;
        const std::size_t mm = k - 1;
        const std::size_t last = k - 1;
        const double gll = gram[last][last];

        // A gamma = rhs over differences d_i = f_i - f_last.
        std::vector<double> A(mm * mm);
        std::vector<double> rhs(mm);
        double trace = 0.0;
        for (std::size_t a = 0; a < mm; ++a) {
            for (std::size_t b = 0; b < mm; ++b) {
                A[a * mm + b] = gram[a][b] - gram[a][last] -
                                gram[last][b] + gll;
            }
            trace += A[a * mm + a];
            rhs[a] = gll - gram[a][last];
        }
        if (!(trace > 0.0) || !std::isfinite(trace))
            return false;
        const double reg = kAndersonRidge * trace;
        for (std::size_t a = 0; a < mm; ++a)
            A[a * mm + a] += reg;

        // Gaussian elimination with partial pivoting (mm <= 8).
        std::vector<std::size_t> perm(mm);
        for (std::size_t a = 0; a < mm; ++a)
            perm[a] = a;
        for (std::size_t col = 0; col < mm; ++col) {
            std::size_t pivot = col;
            double best = std::abs(A[perm[col] * mm + col]);
            for (std::size_t r = col + 1; r < mm; ++r) {
                const double cand = std::abs(A[perm[r] * mm + col]);
                if (cand > best) {
                    best = cand;
                    pivot = r;
                }
            }
            if (!(best > 1e-14 * trace))
                return false;
            std::swap(perm[col], perm[pivot]);
            const double diag = A[perm[col] * mm + col];
            for (std::size_t r = col + 1; r < mm; ++r) {
                const double factor = A[perm[r] * mm + col] / diag;
                if (factor == 0.0)
                    continue;
                for (std::size_t c = col; c < mm; ++c)
                    A[perm[r] * mm + c] -= factor * A[perm[col] * mm + c];
                rhs[perm[r]] -= factor * rhs[perm[col]];
            }
        }
        std::vector<double> gamma(mm);
        for (std::size_t col = mm; col-- > 0;) {
            double v = rhs[perm[col]];
            for (std::size_t c = col + 1; c < mm; ++c)
                v -= A[perm[col] * mm + c] * gamma[c];
            gamma[col] = v / A[perm[col] * mm + col];
            if (!std::isfinite(gamma[col]))
                return false;
        }

        // Bounded extrapolation: an ill-conditioned window asks for
        // an enormous jump that overshoots the locally-linear region
        // and gets rejected; a capped jump in the same direction is
        // accepted and compounds (kAndersonMaxMixWeight).
        double gsum = 0.0;
        for (std::size_t a = 0; a < mm; ++a)
            gsum += std::abs(gamma[a]);
        if (gsum > kAndersonMaxMixWeight) {
            for (auto &g : gamma)
                g *= kAndersonMaxMixWeight / gsum;
        }

        // out = g_last + sum_i gamma_i (g_i - g_last).
        out = gs[last];
        for (std::size_t a = 0; a < mm; ++a) {
            const double ga = gamma[a];
            if (ga == 0.0)
                continue;
            const std::vector<double> &gi = gs[a];
            const std::vector<double> &gl = gs[last];
            for (std::size_t e = 0; e < out.size(); ++e)
                out[e] += ga * (gi[e] - gl[e]);
        }
        return true;
    }
};

/**
 * Project mixed bids back to the feasible set: per user, clamp to the
 * strict-positivity floor initializeBids uses and rescale to restore
 * budget conservation (Eq. 10). The affine mixing can leave a
 * coordinate negative; the projection is what makes the accelerated
 * iterate a legal bid state.
 */
void
projectBids(const detail::BidKernel &kernel, std::vector<double> &bids)
{
    for (std::size_t i = 0; i < kernel.userCount; ++i) {
        const std::size_t lo = kernel.userOffset[i];
        const std::size_t hi = kernel.userOffset[i + 1];
        const double floor = 1e-12 * kernel.budget[i];
        double sum = 0.0;
        for (std::size_t e = lo; e < hi; ++e) {
            const double v = bids[e];
            const double clamped =
                (std::isfinite(v) && v > floor) ? v : floor;
            bids[e] = clamped;
            sum += clamped;
        }
        const double scale = kernel.budget[i] / sum;
        for (std::size_t e = lo; e < hi; ++e)
            bids[e] *= scale;
    }
}

/**
 * Contract: after every proportional-response round, prices stay
 * positive and finite, bids stay non-negative, and each user's bids
 * still sum to her budget (paper Eq. 10). No code in default builds.
 */
void
checkRoundInvariants(const FisherMarket &market,
                     const detail::BidKernel &kernel,
                     const std::vector<double> &newPrices,
                     JobMatrix &bidsScratch)
{
    if constexpr (checkedBuild) {
        detail::unflattenBids(kernel, bidsScratch);
        invariants::CheckMarketState(newPrices, bidsScratch,
                                     "bidding round");
        const std::size_t n = market.userCount();
        std::vector<double> budgets(n);
        for (std::size_t i = 0; i < n; ++i)
            budgets[i] = market.user(i).budget;
        invariants::CheckBidBudgets(bidsScratch, budgets, 1e-9,
                                    "bidding round");
    }
}

/**
 * Relative max price movement between rounds. max over chunks is
 * exact (no rounding), so the tree fold is trivially
 * order-independent; the reduce keeps the scan off the critical path
 * at high thread counts.
 */
double
maxPriceDelta(const std::vector<double> &oldPrices,
              const std::vector<double> &newPrices, std::size_t m)
{
    return exec::parallelReduce(
        std::size_t{0}, m, detail::kServerGrain, 0.0,
        [&](std::size_t lo, std::size_t hi) {
            double chunk_max = 0.0;
            for (std::size_t j = lo; j < hi; ++j) {
                const double base = std::max(oldPrices[j], 1e-300);
                chunk_max = std::max(
                    chunk_max,
                    std::abs(newPrices[j] - oldPrices[j]) / base);
            }
            return chunk_max;
        },
        [](double a, double b) { return std::max(a, b); });
}

/**
 * Final allocations x_ij = b_ij / p_j, plus the clearing-feasibility
 * contract in checked builds. @p checkFeasible skips the contract
 * when the final sharded round served stale aggregates: shard-local
 * bids and coordinator prices are then legitimately inconsistent
 * (the degraded round is the point), and the non-converged result
 * escalates through the fallback ladder instead.
 */
void
finalizeAllocation(const FisherMarket &market, BiddingResult &result,
                   bool checkFeasible)
{
    const std::size_t n = market.userCount();
    result.allocation.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &jobs = market.user(i).jobs;
        result.allocation[i].resize(jobs.size());
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            const double p = result.prices[jobs[k].server];
            ensure(p > 0.0, "zero equilibrium price on server ",
                   jobs[k].server);
            result.allocation[i][k] = result.bids[i][k] / p;
        }
    }

    // Contract: x = b / p clears every server exactly up to rounding,
    // and never over-subscribes capacity.
    if constexpr (checkedBuild) {
        if (checkFeasible) {
            invariants::CheckAllocationFeasible(
                result.serverLoads(market), market.capacities(), 1e-6,
                "bidding allocation");
        }
    }
}

} // namespace

void
updateUserBids(const MarketUser &user, const std::vector<double> &prices,
               std::vector<double> &bids)
{
    if (bids.size() != user.jobs.size())
        fatal("bid vector size mismatch for user '", user.name, "'");

    // U_ij = sqrt(f w) * sqrt(p) * s(x) with x = b / p. The factored
    // form (rather than sqrt(f w p)) lets callers hoist sqrt(f w) out
    // of the iteration; the SoA kernel relies on the two forms being
    // the *same* expression so its bids match this function bitwise.
    double total = 0.0;
    for (std::size_t k = 0; k < user.jobs.size(); ++k) {
        const auto &job = user.jobs[k];
        if (job.server >= prices.size()) {
            fatal("user '", user.name, "' bids on server ", job.server,
                  " but only ", prices.size(), " prices were posted");
        }
        const double p = prices[job.server];
        double propensity = 0.0;
        if (p > 0.0 && bids[k] > 0.0) {
            const double x = bids[k] / p;
            propensity =
                std::sqrt(job.parallelFraction * job.weight) *
                std::sqrt(p) * amdahlSpeedup(job.parallelFraction, x);
        }
        bids[k] = propensity; // Reuse storage for the unnormalized U.
        total += propensity;
    }

    if (total <= 0.0) {
        // All propensities vanished (e.g. fully serial jobs): fall back
        // to an even split so the budget is still exhausted.
        const double even = user.budget / static_cast<double>(bids.size());
        std::fill(bids.begin(), bids.end(), even);
        return;
    }
    AMDAHL_CHECK_FINITE(total);
    for (double &b : bids) {
        b = user.budget * b / total;
        AMDAHL_CHECK_FINITE(b);
        AMDAHL_ASSERT(b >= 0.0, "proportional update produced a ",
                      "negative bid for user '", user.name, "'");
    }
}

JobMatrix
meanFieldSeedBids(const FisherMarket &market)
{
    market.validate();
    const std::size_t n = market.userCount();
    double totalBudget = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        totalBudget += market.user(i).budget;
    double totalCapacity = 0.0;
    for (std::size_t j = 0; j < market.serverCount(); ++j)
        totalCapacity += market.capacity(j);
    const double pbar = totalBudget / totalCapacity;

    JobMatrix bids(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &user = market.user(i);
        const std::size_t jobs = user.jobs.size();
        bids[i].resize(jobs);
        // Fair-share cores per job at the uniform price, then one
        // analytic proportional-response step against it.
        const double xbar =
            user.budget / (static_cast<double>(jobs) * pbar);
        double total = 0.0;
        for (std::size_t k = 0; k < jobs; ++k) {
            const auto &job = user.jobs[k];
            const double propensity =
                std::sqrt(job.parallelFraction * job.weight) *
                std::sqrt(pbar) *
                amdahlSpeedup(job.parallelFraction, xbar);
            bids[i][k] = propensity;
            total += propensity;
        }
        if (total <= 0.0) {
            const double even =
                user.budget / static_cast<double>(jobs);
            std::fill(bids[i].begin(), bids[i].end(), even);
            continue;
        }
        for (double &b : bids[i])
            b = user.budget * b / total;
    }
    return bids;
}

namespace {

/**
 * The one round loop of Amdahl Bidding. Each round posts prices and
 * takes the next round's prices from one of two price exchanges: in
 * process, the bid update plus the canonical gather; sharded
 * (@p sharded non-null), the epoch-barrier protocol of
 * detail::ShardedExchange. Everything else happens here, once.
 */
BiddingResult
clearMarket(const FisherMarket &market, const BiddingOptions &opts,
            const net::ShardedOptions *sharded, net::NetSession *session)
{
    market.validate();
    // Each check negates the valid range, so NaN fails it too.
    if (!(opts.priceTolerance > 0.0 &&
          std::isfinite(opts.priceTolerance)))
        fatal("price tolerance must be positive and finite, got ",
              opts.priceTolerance);
    if (opts.maxIterations < 1)
        fatal("need at least one iteration");
    if (!(opts.damping > 0.0 && opts.damping <= 1.0))
        fatal("damping must be in (0, 1], got ", opts.damping);
    if (!(opts.transport.lossRate >= 0.0 &&
          opts.transport.lossRate <= 1.0))
        fatal("bid loss rate must be in [0, 1], got ",
              opts.transport.lossRate);
    if (opts.deadline.wallClockSeconds < 0.0 ||
        !std::isfinite(opts.deadline.wallClockSeconds)) {
        fatal("wall-clock deadline must be finite and non-negative, "
              "got ", opts.deadline.wallClockSeconds);
    }
    if (opts.deadline.iterationBudget < 0) {
        fatal("iteration budget must be non-negative, got ",
              opts.deadline.iterationBudget);
    }
    if (sharded != nullptr) {
        if (!sharded->enabled())
            fatal("solveShardedBidding called with sharding disabled");
        if (const Status st = net::validateShardedOptions(*sharded);
            !st.isOk())
            fatal("invalid sharded clearing options: ", st.toString());
        if (opts.deadline.wallClockSeconds > 0.0)
            fatal("sharded clearing runs in virtual time; wall-clock "
                  "deadlines are not supported (use iterationBudget)");
        if (opts.accel.enabled)
            fatal("Anderson acceleration is not supported by the "
                  "sharded solver: the accelerated iterate mixes whole "
                  "bid vectors, which no shard owns");
    }
    if (opts.accel.enabled) {
        if (opts.transport.lossRate > 0.0)
            fatal("Anderson acceleration requires a sound transport; "
                  "under message loss the fixed-point map changes "
                  "every round");
        if (opts.accel.depth < 1 || opts.accel.depth > 8)
            fatal("acceleration depth must be in [1, 8], got ",
                  opts.accel.depth);
    }

    const std::size_t n = market.userCount();
    const std::size_t m = market.serverCount();

    obs::ScopedTimer solve_timer(
        obs::timeHistogram("time.bidding.solve_us"));
    // Per-phase timers, looked up once per solve (map lookups do not
    // belong inside the round loop); nullptr while timing is off.
    obs::Histogram *update_hist =
        obs::timeHistogram("time.bidding.update_us");
    obs::Histogram *prices_hist =
        obs::timeHistogram("time.bidding.prices_us");
    if (auto *sink = obs::traceSink()) {
        obs::TraceEvent(*sink, "bidding_start")
            .field("users", n)
            .field("servers", m)
            .field("damping", opts.damping)
            .field("warm_start", !opts.initialBids.empty())
            .field("deadline_armed", opts.deadline.enabled());
    }

    BiddingResult result;
    result.prices.assign(m, 0.0);
    detail::initializeBids(market, opts, result.bids);

    detail::BidKernel localKernel;
    detail::BidKernel &kernel =
        detail::acquireKernel(market, opts.kernelCache, localKernel);
    detail::flattenBids(result.bids, kernel);
    detail::gatherPrices(kernel, result.prices);

    // The price exchange: null is the in-process path.
    std::optional<detail::ShardedExchange> exchange;
    if (sharded != nullptr)
        exchange.emplace(kernel, opts.damping, *sharded, session,
                         result.net);

    // Anytime bookkeeping. The best-so-far snapshot is seeded with the
    // initial state: on a validated market every server hosts a job and
    // every initial bid is positive, so initial prices are all
    // positive and the snapshot is feasible no matter how early the
    // deadline fires. A round's state only replaces it when its price
    // update moved less *and* its prices stayed strictly positive.
    const bool anytime = opts.deadline.enabled();
    // Baselined DET-clock finding (tools/lint/amdahl_lint.baseline):
    // the wall-clock deadline exists to bound real latency under
    // overload, and the clock is never read unless a deadline is set.
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_time;
    if (opts.deadline.wallClockSeconds > 0.0)
        start_time = Clock::now();
    std::vector<double> best_bids;
    std::vector<double> best_prices;
    double best_delta = std::numeric_limits<double>::infinity();
    if (anytime) {
        best_bids = kernel.bids;
        best_prices = result.prices;
    }

    // Lossy transport: each (user, round) loss decision comes from its
    // own counter-based substream — a pure function of (seed, user,
    // round) — so realizations are identical under either exchange
    // and at any thread count. The mask is materialized serially
    // before the round's fan-out; with a sound transport (the
    // default) nothing is ever drawn.
    const bool lossy = opts.transport.lossRate > 0.0;
    std::vector<unsigned char> lost;
    if (lossy)
        lost.assign(n, 0);
    std::uint64_t lost_messages = 0;

    const bool accel = opts.accel.enabled;
    AndersonState anderson{opts.accel.depth, {}, {}, {}};
    std::vector<double> accel_prev;
    std::vector<double> accel_mix;
    std::vector<double> accel_candidate;
    std::vector<double> accel_prices;
    std::vector<double> accel_next_prices;
    if (accel) {
        accel_prices.resize(m);
        accel_next_prices.resize(m);
    }

    std::vector<double> new_prices(m);
    // A fresh round is one whose prices answer every user's bids;
    // only sharded rounds that served stale aggregates are not.
    bool fresh = true;
    bool collapsed = false;
    for (int it = 0; it < opts.maxIterations; ++it) {
        bool round_lost_message = false;
        if (lossy) {
            for (std::size_t i = 0; i < n; ++i) {
                lost[i] = counterBernoulli(
                              opts.transport.seed, i,
                              static_cast<std::uint64_t>(it),
                              opts.transport.lossRate)
                              ? 1
                              : 0;
                if (lost[i]) {
                    // This user's update message is lost: her previous
                    // bids stand for the round (they still sum to her
                    // budget, so no invariant moves).
                    round_lost_message = true;
                    ++lost_messages;
                }
            }
        }

        if (exchange) {
            const auto round =
                exchange->round(it, result.prices, lost, new_prices);
            if (round.collapsed) {
                collapsed = true;
                result.iterations = it + 1;
                break;
            }
            fresh = round.fresh;
        } else {
            {
                obs::ScopedTimer update_timer(update_hist);
                // Every user responds to the same posted prices and
                // writes only her own bid slots — disjoint per chunk,
                // so the fan-out commutes bitwise. The accelerator
                // needs the pre-update iterate to form the residual
                // g(x) - x.
                if (accel)
                    accel_prev = kernel.bids;
                exec::parallelFor(
                    0, n, detail::kUserGrain,
                    [&](std::size_t ulo, std::size_t uhi) {
                        if (!lossy) {
                            detail::updateUsersRange(
                                kernel, ulo, uhi, result.prices,
                                opts.damping);
                            return;
                        }
                        for (std::size_t i = ulo; i < uhi; ++i) {
                            if (lost[i])
                                continue;
                            detail::updateOneUser(kernel, i,
                                                  result.prices,
                                                  opts.damping);
                        }
                    });
            }
            obs::ScopedTimer prices_timer(prices_hist);
            detail::gatherPrices(kernel, new_prices);
        }

        double max_delta = maxPriceDelta(result.prices, new_prices, m);
        if (accel) {
            // The plain PRD step is already in kernel.bids/new_prices
            // and is the guaranteed fallback. Try to do better: mix
            // the history window into a candidate iterate, project it
            // to feasibility, and *evaluate* it — one proportional-
            // response pass at the candidate measures its true
            // fixed-point residual. Accept only when that residual is
            // strictly below the plain step's; the evaluation pass is
            // never wasted, because on acceptance g(candidate) is
            // exactly the next iterate (and joins the history). On
            // rejection the plain step stands untouched and the window
            // is kept: the plain step has already joined it, and the
            // next round proposes again from it.
            const double plain_delta = max_delta;
            anderson.push(accel_prev, kernel.bids);
            double accel_delta = -1.0;
            bool accepted = false;
            if (anderson.proposal(accel_mix)) {
                projectBids(kernel, accel_mix);
                // kernel.bids := candidate; accel_mix keeps the plain
                // step for the rejection path.
                std::swap(kernel.bids, accel_mix);
                detail::gatherPrices(kernel, accel_prices);
                accel_candidate = kernel.bids;
                exec::parallelFor(
                    0, n, detail::kUserGrain,
                    [&](std::size_t ulo, std::size_t uhi) {
                        detail::updateUsersRange(kernel, ulo, uhi,
                                                 accel_prices,
                                                 opts.damping);
                    });
                detail::gatherPrices(kernel, accel_next_prices);
                accel_delta = maxPriceDelta(
                    accel_prices, accel_next_prices, m);
                if (accel_delta < plain_delta) {
                    accepted = true;
                    anderson.push(accel_candidate, kernel.bids);
                    std::swap(new_prices, accel_next_prices);
                    max_delta = accel_delta;
                    ++result.accelAccepted;
                } else {
                    std::swap(kernel.bids, accel_mix);
                    ++result.accelRejected;
                }
            }
            if (auto *sink = obs::traceSink()) {
                obs::TraceEvent(*sink, "bidding_accel")
                    .field("iter", it + 1)
                    .field("plain_delta", plain_delta)
                    .field("accel_delta", accel_delta)
                    .field("accepted", accepted);
            }
        }

        checkRoundInvariants(market, kernel, new_prices, result.bids);
        result.prices = new_prices;
        result.iterations = it + 1;
        if (auto *sink = obs::traceSink()) {
            obs::TraceEvent(*sink, "bidding_iter")
                .field("iter", it + 1)
                .field("max_delta", max_delta)
                .field("lost_messages", round_lost_message);
        }
        if (exchange)
            exchange->emitRoundSpan();
        // A round with lost messages can leave prices spuriously
        // still (nobody moved), and a stale round's silent shards have
        // not answered these prices yet: neither counts as
        // convergence.
        if (max_delta < opts.priceTolerance && !round_lost_message &&
            fresh) {
            result.converged = true;
            break;
        }

        if (anytime) {
            bool positive = true;
            for (double p : new_prices) {
                if (!(p > 0.0)) {
                    positive = false;
                    break;
                }
            }
            // Only fresh rounds are anytime candidates: a stale
            // round's prices come from aggregates the local bids have
            // partly outrun, and the restored pair must be consistent.
            if (positive && fresh && max_delta < best_delta) {
                best_delta = max_delta;
                best_bids = kernel.bids;
                best_prices = new_prices;
            }
            bool expired = opts.deadline.iterationBudget > 0 &&
                           it + 1 >= opts.deadline.iterationBudget;
            if (opts.deadline.wallClockSeconds > 0.0) {
                result.elapsedSeconds =
                    std::chrono::duration<double>(Clock::now() -
                                                  start_time)
                        .count();
                expired = expired || result.elapsedSeconds >=
                                         opts.deadline.wallClockSeconds;
            }
            if (expired) {
                kernel.bids = std::move(best_bids);
                result.prices = std::move(best_prices);
                result.deadlineExpired = true;
                if (auto *sink = obs::traceSink()) {
                    obs::TraceEvent(*sink, "deadline_expired")
                        .field("iter", it + 1)
                        .field("best_delta", best_delta);
                }
                break;
            }
        }
    }
    if (opts.deadline.wallClockSeconds > 0.0 &&
        !result.deadlineExpired) {
        result.elapsedSeconds =
            std::chrono::duration<double>(Clock::now() - start_time)
                .count();
    }
    if (exchange)
        exchange->finish(result.iterations);

    auto &reg = obs::metrics();
    reg.counter("bidding.solves").add();
    reg.counter("bidding.iterations")
        .add(static_cast<std::uint64_t>(result.iterations));
    if (!result.converged)
        reg.counter("bidding.non_converged").add();
    if (result.deadlineExpired)
        reg.counter("bidding.deadline_expired").add();
    if (lost_messages > 0)
        reg.counter("bidding.lost_messages").add(lost_messages);
    if (result.accelAccepted > 0)
        reg.counter("bidding.accel_accepted")
            .add(static_cast<std::uint64_t>(result.accelAccepted));
    if (result.accelRejected > 0)
        reg.counter("bidding.accel_rejected")
            .add(static_cast<std::uint64_t>(result.accelRejected));
    if (auto *sink = obs::traceSink()) {
        obs::TraceEvent(*sink, "bidding_end")
            .field("iterations", result.iterations)
            .field("converged", result.converged)
            .field("deadline_expired", result.deadlineExpired);
    }

    detail::unflattenBids(kernel, result.bids);
    // The final state is consistent (x = b / p clears capacity) unless
    // the last sharded round served stale aggregates or the quorum
    // collapsed; a restored anytime snapshot always is.
    finalizeAllocation(market, result,
                       result.deadlineExpired || (fresh && !collapsed));
    return result;
}

} // namespace

BiddingResult
solveAmdahlBidding(const FisherMarket &market, const BiddingOptions &opts)
{
    return clearMarket(market, opts, nullptr, nullptr);
}

BiddingResult
solveShardedBidding(const FisherMarket &market, const BiddingOptions &opts,
                    const net::ShardedOptions &sharded,
                    net::NetSession *session)
{
    return clearMarket(market, opts, &sharded, session);
}

} // namespace amdahl::core
