#include "amdahl_bidding_policy.hh"

#include "common/check.hh"
#include "common/logging.hh"
#include "core/rounding.hh"

namespace amdahl::alloc {

AllocationResult
AmdahlBiddingPolicy::allocate(const core::FisherMarket &market) const
{
    core::ClearingContext ctx;
    ctx.transport = opts.transport;
    ctx.kernelCache = opts.kernelCache;
    return allocate(market, ctx);
}

AllocationResult
AmdahlBiddingPolicy::allocate(
    const core::FisherMarket &market,
    const core::BidTransportFaults &faults) const
{
    core::ClearingContext ctx;
    ctx.transport = faults;
    ctx.kernelCache = opts.kernelCache;
    return allocate(market, ctx);
}

AllocationResult
AmdahlBiddingPolicy::allocate(const core::FisherMarket &market,
                              const core::ClearingContext &ctx) const
{
    if (ctx.sharding != nullptr)
        fatal("AmdahlBiddingPolicy clears in-process; sharded "
              "clearing goes through the fallback ladder");
    core::BiddingOptions merged = opts;
    merged.transport = ctx.transport;
    if (ctx.initialBids != nullptr)
        merged.initialBids = *ctx.initialBids;
    merged.kernelCache = ctx.kernelCache;

    AllocationResult result;
    result.policyName = name();
    result.outcome = core::solveAmdahlBidding(market, merged);
    result.cores = core::roundOutcome(market, result.outcome);
    if constexpr (checkedBuild)
        auditAllocation(market, result);
    return result;
}

} // namespace amdahl::alloc
