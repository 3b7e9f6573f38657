/**
 * @file
 * Amdahl Bidding (AB) as an allocation policy (Section VI-A).
 *
 * Thin adapter: run the closed-form proportional-response procedure from
 * core/bidding.hh to the Fisher equilibrium, then round fractional
 * allocations with Hamilton's method. This is the paper's proposed
 * mechanism.
 */

#ifndef AMDAHL_ALLOC_AMDAHL_BIDDING_POLICY_HH
#define AMDAHL_ALLOC_AMDAHL_BIDDING_POLICY_HH

#include "alloc/policy.hh"
#include "core/bidding.hh"

namespace amdahl::alloc {

/** The paper's market mechanism. */
class AmdahlBiddingPolicy : public AllocationPolicy
{
  public:
    explicit AmdahlBiddingPolicy(core::BiddingOptions options = {})
        : opts(std::move(options))
    {}

    std::string name() const override { return "AB"; }

    AllocationResult allocate(
        const core::FisherMarket &market) const override;

    /** Same procedure with this clearing's transport faults merged
     *  into the bidding options. */
    AllocationResult allocate(
        const core::FisherMarket &market,
        const core::BidTransportFaults &faults) const override;

    /** Full clearing context: faults plus the delta re-clearing
     *  plumbing (seed bids, kernel cache). Sharded clearing
     *  still requires the fallback ladder — this adapter serves the
     *  in-process procedure only and fatals on a sharded context. */
    AllocationResult allocate(
        const core::FisherMarket &market,
        const core::ClearingContext &ctx) const override;

  private:
    core::BiddingOptions opts;
};

} // namespace amdahl::alloc

#endif // AMDAHL_ALLOC_AMDAHL_BIDDING_POLICY_HH
