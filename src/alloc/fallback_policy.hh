/**
 * @file
 * Degraded-mode allocation: the fallback ladder around Amdahl Bidding.
 *
 * The bidding procedure converges on every input the paper evaluates,
 * but a production market also faces adversarial inputs, message loss
 * in the distributed deployment, and hard epoch deadlines (a tight
 * iteration budget). When the primary procedure exhausts its budget
 * without converging, silently serving the half-iterated bids would
 * misallocate without anyone noticing. This policy degrades
 * *predictably* instead, down a four-rung ladder:
 *
 *  1. Primary: Amdahl Bidding with the configured options.
 *  2. Deadline anytime: when the primary's anytime deadline expires
 *     (BiddingOptions::deadline), the best budget-feasible bid state
 *     it reached is served as-is — the deadline exists because there
 *     is no time left, so no retry is attempted.
 *  3. Damped retry: the same market re-solved with damping scaled
 *     down and warm-started from the primary attempt's bids — the
 *     cheap fix for oscillating proportional-response dynamics.
 *  4. Proportional fallback: proportional share by entitlement — the
 *     allocation every tenant is contractually owed. It ignores
 *     parallelizability (forfeiting the market's efficiency edge for
 *     one epoch) but is feasible, budget-respecting, and closed-form.
 *
 * Every result records which rung served it (AllocationResult::mode)
 * so the online metrics can report fallback epochs.
 */

#ifndef AMDAHL_ALLOC_FALLBACK_POLICY_HH
#define AMDAHL_ALLOC_FALLBACK_POLICY_HH

#include "alloc/policy.hh"
#include "core/bidding.hh"

namespace amdahl::alloc {

/** Knobs of the degraded-mode ladder. */
struct FallbackOptions
{
    /** Iteration budget of the retry; 0 inherits the primary's. */
    int retryMaxIterations = 0;
};

/** Amdahl Bidding wrapped in the degraded-mode ladder. */
class FallbackPolicy : public AllocationPolicy
{
  public:
    explicit FallbackPolicy(core::BiddingOptions primary = {},
                            FallbackOptions fallback = {});

    std::string name() const override { return "AB+FB"; }

    AllocationResult allocate(
        const core::FisherMarket &market) const override;

    AllocationResult allocate(
        const core::FisherMarket &market,
        const core::BidTransportFaults &faults) const override;

    /**
     * The full-context overload: when `ctx.sharding` is non-null and
     * enabled, every rung that clears a market (primary and damped
     * retry) runs the sharded epoch-barrier solver over the simulated
     * network instead of the in-process one — so the ladder also
     * absorbs quorum collapses and partition-degraded epochs, with the
     * serve's structured `reason` derived from the transport outcome.
     */
    AllocationResult allocate(
        const core::FisherMarket &market,
        const core::ClearingContext &ctx) const override;

  private:
    AllocationResult ladder(const core::FisherMarket &market,
                            const core::ClearingContext &ctx) const;

    core::BiddingOptions primary;
    FallbackOptions fb;
};

} // namespace amdahl::alloc

#endif // AMDAHL_ALLOC_FALLBACK_POLICY_HH
