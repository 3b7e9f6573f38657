/**
 * @file
 * The Fisher market for processor cores (Section V-B/C).
 *
 * The system has n users and m servers; server j holds C_j cores. Each
 * user runs one or more jobs, each assigned to a server and characterized
 * by a parallel fraction f and work rate w. Users receive budgets
 * proportional to their datacenter-wide entitlements and bid budget on
 * the servers that run their jobs.
 *
 * A price vector p and allocation x form a *market equilibrium* when
 * (1) every server clears — sum_i x_ij = C_j — and (2) every user's
 * allocation maximizes her Amdahl utility subject to her budget. This
 * header defines the market description, outcomes, and an equilibrium
 * verifier; the Amdahl Bidding procedure that finds the equilibrium
 * lives in bidding.hh.
 */

#ifndef AMDAHL_CORE_MARKET_HH
#define AMDAHL_CORE_MARKET_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/utility.hh"

namespace amdahl::core {

/** One job: a workload instance pinned to a server. */
struct JobSpec
{
    std::size_t server = 0;        //!< Index of the hosting server.
    double parallelFraction = 0.5; //!< f_ij (estimated via Karp-Flatt).
    double weight = 1.0;           //!< w_ij, work rate at one core.
};

/** One market participant. */
struct MarketUser
{
    std::string name;          //!< Diagnostic label.
    double budget = 1.0;       //!< b_i, proportional to entitlement.
    std::vector<JobSpec> jobs; //!< At least one.
};

/**
 * Immutable description of one allocation problem.
 */
class FisherMarket
{
  public:
    /** @param capacities C_j per server, each positive. */
    explicit FisherMarket(std::vector<double> capacities);

    /** Add a participant. @return Her index. */
    std::size_t addUser(MarketUser user);

    /** @return Number of users n. */
    std::size_t userCount() const { return users_.size(); }

    /** @return Number of servers m. */
    std::size_t serverCount() const { return capacities_.size(); }

    /** @return User i. */
    const MarketUser &user(std::size_t i) const;

    /** @return Capacity vector. */
    const std::vector<double> &capacities() const { return capacities_; }

    /** @return C_j. */
    double capacity(std::size_t j) const;

    /** @return Sum of user budgets B. */
    double totalBudget() const { return budgetSum; }

    /** @return Sum of server capacities. */
    double totalCores() const;

    /**
     * Check solvability: at least one user, every user has a job and a
     * positive budget, and every server hosts at least one job (a
     * bidder-less server cannot clear).
     *
     * @throws FatalError when the market is degenerate.
     */
    void validate() const;

    /** @return b_i / B, user i's entitlement share. */
    double entitlementShare(std::size_t i) const;

    /**
     * @return User i's datacenter-wide entitled cores,
     * (b_i / B) * sum_j C_j.
     */
    double entitledCores(std::size_t i) const;

    /**
     * @return User i's per-server entitlement on server j,
     * x_ent_ij = (b_i / B) * C_j.
     */
    double entitledCoresOnServer(std::size_t i, std::size_t j) const;

    /** @return User i's Amdahl utility function (one term per job). */
    AmdahlUtility utilityOf(std::size_t i) const;

  private:
    std::vector<double> capacities_;
    std::vector<MarketUser> users_;
    double budgetSum = 0.0;
};

/**
 * Per-user, per-job matrices (bids or allocations); outer index is the
 * user, inner index matches MarketUser::jobs order.
 */
using JobMatrix = std::vector<std::vector<double>>;

/** The address of one job: user i's k-th job, entry [i][k] of a
 *  JobMatrix. */
struct JobRef
{
    std::size_t user = 0; //!< User index i.
    std::size_t job = 0;  //!< Index into MarketUser::jobs.

    bool operator==(const JobRef &) const = default;
};

/**
 * Server-major index over a market's jobs, for per-server passes
 * (rounding, per-server policies).
 *
 * Built by one counting sort in O(users + servers + jobs). Within a
 * server the entries keep user-major order — by user, then by job
 * index — which is the order a scan over every user meets them, so a
 * pass over one server's slice sees exactly the sequence such a scan
 * would, without the O(users x servers) cost of repeating the scan
 * per server. The index copies what it needs and holds no reference
 * to the market; it goes stale if users are added afterwards.
 */
class ServerJobIndex
{
  public:
    explicit ServerJobIndex(const FisherMarket &market);

    /** @return Number of servers m. */
    std::size_t serverCount() const { return starts_.size() - 1; }

    /** @return Server j's jobs in user-major order; empty when it
     *  hosts none. */
    std::span<const JobRef> jobsOn(std::size_t j) const;

  private:
    /** Server j's slice of entries_ is [starts_[j], starts_[j + 1]). */
    std::vector<std::size_t> starts_;
    std::vector<JobRef> entries_;
};

/**
 * Network-facing diagnostics of a sharded clearing solve (src/net/).
 * All-zero for in-process solves, so the struct is free to carry on
 * every outcome. The fallback ladder reads these to attribute *why* a
 * serve was degraded (deadline_expired / partition / quorum_floor).
 */
struct NetOutcomeStats
{
    /** Rounds cleared on a partial quorum with stale aggregates. */
    std::uint64_t degradedRounds = 0;
    /** Shard-rounds where a silent shard's last bids stood in. */
    std::uint64_t staleBidRounds = 0;
    /** Bid-aggregate retransmissions across the solve. */
    std::uint64_t retransmits = 0;
    /** Shards re-admitted with damped warm-start re-entry. */
    std::uint64_t healedReentries = 0;
    /** Smallest usable-shard quorum seen in any round. */
    std::uint64_t minQuorum = 0;
    /** At least one degraded round overlapped a scheduled partition. */
    bool partitionDegraded = false;
    /** The usable quorum fell below the configured floor and the
     *  solve aborted (always non-converged). */
    bool quorumCollapsed = false;

    /**
     * Virtual-time critical-path attribution, in ticks. Every round's
     * latency (price broadcast to barrier close) is charged exactly
     * once: fresh rounds split between message transit (delayTicks)
     * and retransmit backoff (retransmitTicks) along the closing
     * chain; degraded or collapsed rounds charge the whole barrier
     * window to partitionWaitTicks (a scheduled partition silenced a
     * missing shard) or quorumWaitTicks (loss/delay starved the
     * barrier). The invariant `delayTicks + retransmitTicks +
     * partitionWaitTicks + quorumWaitTicks == latencyTicks` holds by
     * construction; compute is instantaneous in virtual time, so a
     * zero-tick round is attributed 100% to compute. bench_ablation_-
     * network asserts the invariant per fault mix, and the round
     * `span` trace events carry the same per-round breakdown.
     */
    std::uint64_t latencyTicks = 0;
    std::uint64_t delayTicks = 0;
    std::uint64_t retransmitTicks = 0;
    std::uint64_t partitionWaitTicks = 0;
    std::uint64_t quorumWaitTicks = 0;
};

/** Result of running a market mechanism. */
struct MarketOutcome
{
    std::vector<double> prices; //!< p_j per server.
    JobMatrix allocation;       //!< x_ij fractional cores per job.
    JobMatrix bids;             //!< b_ij spend per job.
    int iterations = 0;         //!< Bidding rounds executed.
    bool converged = false;     //!< Price-change threshold reached.

    /** An anytime deadline fired before convergence; prices/bids are
     *  the best budget-feasible state reached, not an equilibrium. */
    bool deadlineExpired = false;

    /** Wall-clock seconds spent in the solve loop. Only measured when
     *  a wall-clock deadline is armed (the clock is never read
     *  otherwise, keeping deadline-free runs bit-identical). */
    double elapsedSeconds = 0.0;

    /** Sharded-transport diagnostics; all-zero for in-process solves. */
    NetOutcomeStats net;

    /** @return Total cores user i holds across all her jobs. */
    double userCores(std::size_t i) const;

    /**
     * @return sum_i x_ij for every server j under the given market, in
     * one user-major pass (O(jobs)). Each server's load is summed in
     * user-major order.
     */
    std::vector<double> serverLoads(const FisherMarket &market) const;
};

/** Residuals of the two equilibrium conditions. */
struct EquilibriumCheck
{
    /** max_j |sum_i x_ij - C_j| / C_j — the market-clearing residual. */
    double maxClearingResidual = 0.0;

    /** max_i |sum_j b_ij - b_i| / b_i — budget exhaustion residual. */
    double maxBudgetResidual = 0.0;

    /**
     * max_i relative gap between the user's achieved utility and her
     * optimal price-taking utility at the outcome's prices (computed by
     * the closed-form water-filling solver).
     */
    double maxOptimalityGap = 0.0;

    /** @return true when all residuals are within tol. */
    bool pass(double tol = 1e-4) const;
};

/**
 * Verify that an outcome is (approximately) a market equilibrium.
 *
 * Linear in jobs: the server loads come from one user-major pass, and
 * the per-user half (budget residual, water-fill optimum, optimality
 * gap) is split across the thread pool. Every field is a max, which
 * is exact in any fold order, so the result is identical at every
 * thread count.
 *
 * @param market  The market description.
 * @param outcome Prices/allocations/bids to check.
 */
EquilibriumCheck verifyEquilibrium(const FisherMarket &market,
                                   const MarketOutcome &outcome);

} // namespace amdahl::core

#endif // AMDAHL_CORE_MARKET_HH
