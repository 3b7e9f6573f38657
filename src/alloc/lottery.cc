#include "lottery.hh"

#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace amdahl::alloc {

AllocationResult
LotteryPolicy::allocate(const core::FisherMarket &market) const
{
    market.validate();
    const std::size_t n = market.userCount();

    AllocationResult result;
    result.policyName = name();
    result.outcome.allocation.resize(n);
    result.cores.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        result.outcome.allocation[i].assign(
            market.user(i).jobs.size(), 0.0);
        result.cores[i].assign(market.user(i).jobs.size(), 0);
    }

    Rng rng(seed_);
    const core::ServerJobIndex index(market);
    for (std::size_t j = 0; j < market.serverCount(); ++j) {
        const auto located = index.jobsOn(j);
        if (located.empty())
            continue;

        // Each job holds its owner's tickets divided across her jobs
        // on this server, so a user's total tickets equal her budget
        // regardless of how many jobs she runs here. The slice is in
        // user-major order, so a user's jobs here form one run.
        std::vector<double> tickets(located.size());
        for (std::size_t k = 0; k < located.size();) {
            const std::size_t owner = located[k].user;
            std::size_t end = k;
            while (end < located.size() && located[end].user == owner)
                ++end;
            const double share = market.user(owner).budget /
                                 static_cast<double>(end - k);
            for (; k < end; ++k)
                tickets[k] = share;
        }

        const int capacity =
            static_cast<int>(std::llround(market.capacity(j)));
        for (int c = 0; c < capacity; ++c) {
            const std::size_t winner = rng.weightedIndex(tickets);
            ++result.cores[located[winner].user][located[winner].job];
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < result.cores[i].size(); ++k) {
            result.outcome.allocation[i][k] =
                static_cast<double>(result.cores[i][k]);
        }
    }
    if constexpr (checkedBuild)
        auditAllocation(market, result);
    return result;
}

} // namespace amdahl::alloc
