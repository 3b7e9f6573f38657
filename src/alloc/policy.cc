#include "policy.hh"

#include "common/invariants.hh"
#include "common/logging.hh"
#include "core/bidding.hh"

namespace amdahl::alloc {

AllocationResult
AllocationPolicy::allocate(const core::FisherMarket &market,
                           const core::ClearingContext &ctx) const
{
    // Centralized policies clear no network: the sharding options (if
    // any) are irrelevant and only the bid-loss model passes through.
    return allocate(market, ctx.transport);
}

const char *
toString(ServeMode mode)
{
    switch (mode) {
      case ServeMode::Primary:
        return "primary";
      case ServeMode::DeadlineAnytime:
        return "deadline-anytime";
      case ServeMode::DampedRetry:
        return "damped-retry";
      case ServeMode::ProportionalFallback:
        return "proportional-fallback";
    }
    panic("unknown serve mode");
}

int
AllocationResult::userCores(std::size_t i) const
{
    int total = 0;
    for (int x : cores[i])
        total += x;
    return total;
}

void
auditAllocation(const core::FisherMarket &market,
                const AllocationResult &result)
{
    const std::size_t n = market.userCount();
    if (result.outcome.allocation.size() != n ||
        result.cores.size() != n) {
        panic(result.policyName, ": result covers ",
              result.outcome.allocation.size(), " users, market has ",
              n);
    }

    // Per-server loads of the fractional and the rounded allocation.
    std::vector<double> fractional(market.serverCount(), 0.0);
    std::vector<double> integral(market.serverCount(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &jobs = market.user(i).jobs;
        if (result.outcome.allocation[i].size() != jobs.size() ||
            result.cores[i].size() != jobs.size()) {
            panic(result.policyName, ": user ", i, " has ",
                  jobs.size(), " jobs but ",
                  result.outcome.allocation[i].size(),
                  " fractional / ", result.cores[i].size(),
                  " integral grants");
        }
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            invariants::CheckParallelFraction(
                jobs[k].parallelFraction, "policy audit");
            if (result.cores[i][k] < 0) {
                panic(result.policyName, ": user ", i, " job ", k,
                      " granted ", result.cores[i][k],
                      " (negative) cores");
            }
            fractional[jobs[k].server] +=
                result.outcome.allocation[i][k];
            integral[jobs[k].server] +=
                static_cast<double>(result.cores[i][k]);
        }
    }
    invariants::CheckAllocationFeasible(fractional, market.capacities(),
                                        1e-6, "policy audit (fractional)");
    invariants::CheckAllocationFeasible(integral, market.capacities(),
                                        1e-9, "policy audit (integral)");
}

} // namespace amdahl::alloc
