/**
 * @file
 * The Amdahl Bidding procedure (Section V-D/E).
 *
 * Proportional response dynamics extended to Amdahl utilities. Each
 * iteration evaluates closed-form equations only — no optimization:
 *
 *     p_j(t)    = sum_i b_ij(t) / C_j
 *     x_ij(t)   = b_ij(t) / p_j(t)
 *     U_ij(t)   = sqrt(f_ij w_ij p_j(t)) * s_ij(x_ij(t))
 *     b_ij(t+1) = b_i * U_ij(t) / sum_k U_ik(t)
 *
 * The update's fixed points satisfy the KKT stationarity condition
 * b_ij^2 proportional to w_ij f_ij s_ij^2 p_j (the paper's Eq. 9), so any
 * fixed point is a market equilibrium and vice versa. The procedure
 * terminates when prices change by less than a small threshold epsilon.
 */

#ifndef AMDAHL_CORE_BIDDING_HH
#define AMDAHL_CORE_BIDDING_HH

#include <cstdint>
#include <vector>

#include "core/market.hh"

namespace amdahl::net {
struct ShardedOptions;
struct NetSession;
} // namespace amdahl::net

namespace amdahl::core {

/**
 * Transport faults of the distributed deployment: each
 * user's bid update is an independent message to the price coordinator
 * and may be lost. A lost update leaves the user's previous bids
 * standing for that round — exactly the effect of a delayed message —
 * so budget conservation is never violated; only convergence slows
 * (and stalls entirely at lossRate 1, which the fallback ladder in
 * alloc/fallback_policy.hh then absorbs).
 */
struct BidTransportFaults
{
    /** Per-round probability a user's bid update is lost (0 = sound
     *  transport). */
    double lossRate = 0.0;

    /** Seed of the loss realization. Each (user, round) decision is
     *  drawn from its own counter-based substream keyed by
     *  (seed, user, round) — see substreamSeed in common/random.hh —
     *  so the realization is a pure function of those coordinates:
     *  identical under either price exchange, at any thread count,
     *  and independent of how many draws other users made. */
    std::uint64_t seed = 0;
};

/**
 * Anytime deadline budget (both limits disabled by default).
 *
 * An epoch-based deployment must post *some* allocation before the
 * epoch boundary even when bidding has not converged. With a deadline
 * armed, the solver tracks the best state seen so far — the bid matrix
 * whose price update moved the least, restricted to states with
 * strictly positive prices — and on expiry returns that state flagged
 * `deadlineExpired` instead of iterating on. The returned state is
 * always budget-feasible: bids are renormalized to budgets every round
 * (Eq. 10) and x = b / p clears each server exactly, so grants never
 * exceed capacity even when the deadline fires on iteration 1 (where
 * the even-split initial state, which has all-positive prices on any
 * validated market, is the guaranteed fallback).
 */
struct DeadlineOptions
{
    /** Wall-clock budget in seconds (0 = no wall-clock deadline).
     *  Checked against std::chrono::steady_clock after each round, so
     *  results under a wall-clock deadline are machine-dependent; use
     *  `iterationBudget` where determinism matters. */
    double wallClockSeconds = 0.0;

    /** Anytime iteration budget (0 = none). Unlike `maxIterations` —
     *  which just stops and reports the *last* state — exhausting this
     *  budget restores the *best* state and flags `deadlineExpired`. */
    int iterationBudget = 0;

    /** @return true when either limit is armed. */
    bool enabled() const
    {
        return wallClockSeconds > 0.0 || iterationBudget > 0;
    }
};

/**
 * Anderson acceleration over the proportional-response fixed-point map
 * (opt-in; `--accel` on the CLI). Each round still evaluates the plain
 * PRD update g(x); the accelerator then proposes an affine combination
 * of the last `depth + 1` (iterate, update) pairs that minimizes the
 * combined residual in least squares, projected back to the feasible
 * set (strictly positive bids, per-user budget conservation).
 *
 * Rejection rule (the guaranteed fallback): the proposal is accepted
 * only when its posted-price residual is strictly smaller than the
 * plain step's. On rejection the round serves the plain PRD step
 * unchanged and the history window is kept (the rejected candidate
 * does not join it), so the iteration is never worse than undamped
 * proportional response — in the worst case it *is* undamped
 * proportional response.
 *
 * Off (the default) the solve path is bit-identical to a build
 * without this feature. Incompatible with lossy transports and
 * sharded clearing (fatal).
 */
struct AccelOptions
{
    /** Master switch. */
    bool enabled = false;

    /** History window: past (iterate, update) pairs kept, in [1, 8].
     *  The least-squares system has at most this many unknowns. */
    int depth = 3;
};

struct KernelCache;

/** Termination and stabilization knobs for Amdahl Bidding. */
struct BiddingOptions
{
    /**
     * Relative price-change threshold epsilon: iteration stops when
     * max_j |p_j(t+1) - p_j(t)| / p_j(t) falls below this.
     */
    double priceTolerance = 1e-6;

    /** Hard cap on iterations. */
    int maxIterations = 10000;

    /**
     * Damping factor in (0, 1]: b(t+1) = (1-d) b(t) + d b_prop. The
     * plain proportional update is d = 1 (the paper's form); smaller
     * values trade speed for stability on adversarial inputs.
     */
    double damping = 1.0;

    /**
     * Warm start: initial bids from a previous equilibrium (an
     * epoch-based deployment re-clears a barely changed market, so
     * last epoch's bids are nearly right). Shape must match the
     * market ([user][job]); each user's bids are renormalized to her
     * budget, and non-positive entries fall back to an even split.
     * Empty (the default) starts from even splits.
     */
    JobMatrix initialBids;

    /** Bid-message loss model. */
    BidTransportFaults transport;

    /** Anytime deadline budget; disabled by default, in which case the
     *  solve path (and its output) is bit-identical to a build without
     *  this feature. */
    DeadlineOptions deadline;

    /** Anderson acceleration; disabled by default (same bit-identity
     *  contract as `deadline`). */
    AccelOptions accel;

    /**
     * Optional cross-solve kernel cache (incremental re-clearing).
     * Non-owning; the caller (eval/online) guarantees it outlives the
     * solve. When the cached CSR structure matches the market exactly
     * the counting sort is skipped and only changed user rows are
     * re-derived — a pure structural cache, so results are byte-
     * identical with or without it.
     */
    KernelCache *kernelCache = nullptr;
};

/** Outcome of the bidding procedure plus convergence diagnostics. */
struct BiddingResult : MarketOutcome
{
    /** Anderson steps accepted / rejected (zero unless accel is on). */
    int accelAccepted = 0;
    int accelRejected = 0;
};

/**
 * Run Amdahl Bidding to the market equilibrium.
 *
 * @param market The allocation problem (validated internally).
 * @param opts   Termination/damping options.
 * @return Equilibrium prices, bids, and fractional allocations. The
 *         `converged` flag is false if maxIterations was exhausted.
 */
BiddingResult solveAmdahlBidding(const FisherMarket &market,
                                 const BiddingOptions &opts = {});

/**
 * Everything an allocation policy needs to know about *how* to clear:
 * the per-user bid-loss model and, when sharded clearing is enabled,
 * the protocol options and the cross-epoch transport session. Plain
 * pointers — the caller (eval/online) owns both and guarantees they
 * outlive the allocate() call.
 */
struct ClearingContext
{
    BidTransportFaults transport;
    /** Non-null enables sharded clearing over the simulated network. */
    const net::ShardedOptions *sharding = nullptr;
    /** Persistent transport state; may be null for a one-shot solve. */
    net::NetSession *session = nullptr;
    /** Non-null seeds bidding (the online runtime passes
     *  meanFieldSeedBids); shape must match the market. */
    const JobMatrix *initialBids = nullptr;
    /** Non-null enables cross-epoch CSR reuse (bitwise invisible). */
    KernelCache *kernelCache = nullptr;
};

/**
 * Mean-field warm-start seed for a cold market: assume the uniform
 * price p̄ = total budget / total capacity every large market
 * converges toward, give each job its user's fair share of cores at
 * that price, and run one analytic proportional-response update. The
 * result is a valid warm start (positive, budget-conserving after
 * initializeBids' renormalization) that typically lands within a few
 * rounds of the equilibrium on populations drawn from a common f/w
 * distribution. Deterministic and serial.
 */
JobMatrix meanFieldSeedBids(const FisherMarket &market);

/**
 * Amdahl Bidding as a distributed epoch-barrier protocol over the
 * deterministic simulated transport (src/net/): users grouped into
 * shards, per-round per-(server, block) bid aggregates, a virtual-time
 * barrier with bounded retransmit + exponential backoff, and
 * partial-quorum degraded rounds under faults (see DESIGN.md §14).
 *
 * Both entry points run the same round loop; this one swaps the
 * in-process bid update and price gather for the sharded protocol's
 * per-round price exchange, so every other option (warm starts,
 * anytime budgets, the kernel cache, per-user bid loss) means the
 * same thing here. Determinism bridge: with every fault rate zero and
 * no scheduled partitions, the result — traces, metrics (modulo
 * wall-clock timings), bids, prices, allocations — is byte-identical to
 * solveAmdahlBidding at any shard count. Requires no wall-clock
 * deadline (virtual time only) and no Anderson acceleration; fatals
 * otherwise.
 *
 * @param market  The allocation problem (validated internally).
 * @param opts    Termination/damping options (wallClockSeconds must
 *                be 0).
 * @param sharded Shard/barrier/fault configuration; must be enabled()
 *                and pass validateShardedOptions (fatal otherwise).
 * @param session Cross-epoch transport state, or nullptr to use a
 *                throwaway session starting at tick 0, round 0.
 */
BiddingResult solveShardedBidding(const FisherMarket &market,
                                  const BiddingOptions &opts,
                                  const net::ShardedOptions &sharded,
                                  net::NetSession *session = nullptr);

/**
 * One proportional-response bid update for a single user (exposed for
 * the overheads study, Section VI-F, which times precisely this code).
 *
 * Computes the propensity in the factored form
 * sqrt(f w) * sqrt(p) * s(x) — not sqrt(f w p) * s(x), which differs
 * in the last ulp — because the solver's structure-of-arrays kernel
 * hoists sqrt(f w) out of the iteration and the two paths must agree
 * bit for bit (tests/core/ pins this).
 *
 * @param user      The bidding user.
 * @param prices    Current prices p_j.
 * @param bids      The user's current bids (one per job); updated in
 *                  place.
 */
void updateUserBids(const MarketUser &user,
                    const std::vector<double> &prices,
                    std::vector<double> &bids);

} // namespace amdahl::core

#endif // AMDAHL_CORE_BIDDING_HH
