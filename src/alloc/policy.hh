/**
 * @file
 * The allocation-policy interface (Section VI-A).
 *
 * Every evaluated mechanism consumes the same problem description — a
 * FisherMarket (users, budgets/entitlements, jobs with (f, w), server
 * capacities) — and produces integral per-job core allocations plus the
 * fractional allocation it rounded from. Market mechanisms also report
 * prices and convergence iterations.
 */

#ifndef AMDAHL_ALLOC_POLICY_HH
#define AMDAHL_ALLOC_POLICY_HH

#include <string>
#include <vector>

#include "core/market.hh"

namespace amdahl::core {
struct BidTransportFaults; // core/bidding.hh
struct ClearingContext;    // core/bidding.hh
}

namespace amdahl::alloc {

/**
 * Which rung of the degraded-mode ladder produced an allocation
 * (alloc/fallback_policy.hh). Ordinary policies always serve Primary.
 */
enum class ServeMode
{
    Primary,              //!< The configured mechanism converged.
    DeadlineAnytime,      //!< Deadline expired; served the best anytime
                          //!< bid state (budget-feasible, flagged via
                          //!< MarketOutcome::deadlineExpired).
    DampedRetry,          //!< Damped, warm-started retry converged.
    ProportionalFallback  //!< Served proportional share by entitlement.
};

/** @return Short label for a serve mode. */
const char *toString(ServeMode mode);

/** Outcome of running a policy on a market. */
struct AllocationResult
{
    std::string policyName;

    /** Integral cores per [user][job] (Hamilton-rounded). */
    std::vector<std::vector<int>> cores;

    /**
     * The pre-rounding outcome: fractional allocation always present;
     * prices/bids populated by market mechanisms only.
     */
    core::MarketOutcome outcome;

    /** Degraded-mode bookkeeping: which ladder rung served this
     *  allocation (Primary for every non-fallback policy). */
    ServeMode mode = ServeMode::Primary;

    /** @return Total integral cores held by user i. */
    int userCores(std::size_t i) const;
};

/** Abstract allocation mechanism. */
class AllocationPolicy
{
  public:
    virtual ~AllocationPolicy() = default;

    /** @return Short policy tag: "PS", "G", "UB", "AB", or "BR". */
    virtual std::string name() const = 0;

    /**
     * Allocate all cores of all servers.
     *
     * @param market The problem; validated by implementations.
     * @return Integral allocations covering each server's capacity.
     */
    virtual AllocationResult allocate(
        const core::FisherMarket &market) const = 0;

    /**
     * Allocate under per-clearing bid-transport faults.
     *
     * The online runtime reaches this variant through the clearing-
     * context overload's default, so a fault schedule can degrade the
     * distributed bidding procedure epoch by epoch. Market mechanisms
     * override it; the default ignores the faults — centralized
     * policies have no bid messages to lose.
     *
     * @param market The problem; validated by implementations.
     * @param faults This clearing's transport-fault realization.
     */
    virtual AllocationResult allocate(
        const core::FisherMarket &market,
        const core::BidTransportFaults &faults) const
    {
        (void)faults;
        return allocate(market);
    }

    /**
     * Allocate under a full clearing context: per-user transport
     * faults plus, when `ctx.sharding` is non-null, sharded clearing
     * over the simulated network (core/bidding_sharded.cc).
     *
     * The default (policy.cc) forwards to the faults overload —
     * centralized policies clear no network. Market mechanisms that
     * support distributed clearing override it.
     *
     * @param market The problem; validated by implementations.
     * @param ctx    Faults, sharding options, transport session.
     */
    virtual AllocationResult allocate(
        const core::FisherMarket &market,
        const core::ClearingContext &ctx) const;
};

/**
 * Audit the contract every policy's output must honor: result shapes
 * match the market, parallel fractions are in [0, 1], fractional and
 * integral allocations are non-negative and finite, and no server is
 * allocated beyond its capacity.
 *
 * Policies call this right before returning, inside an
 * `if constexpr (checkedBuild)` block, so default builds skip the
 * audit entirely.
 *
 * @throws PanicError when the result violates the contract.
 */
void auditAllocation(const core::FisherMarket &market,
                     const AllocationResult &result);

} // namespace amdahl::alloc

#endif // AMDAHL_ALLOC_POLICY_HH
