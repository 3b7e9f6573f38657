#include "entitlement.hh"

#include "common/logging.hh"
#include "common/stats.hh"

namespace amdahl::core {

std::vector<double>
entitledCoresPerUser(const FisherMarket &market)
{
    std::vector<double> entitled(market.userCount());
    for (std::size_t i = 0; i < market.userCount(); ++i)
        entitled[i] = market.entitledCores(i);
    return entitled;
}

namespace {

template <typename Matrix>
std::vector<double>
sumPerUser(const FisherMarket &market, const Matrix &allocation)
{
    if (allocation.size() != market.userCount())
        fatal("allocation has wrong user count");
    std::vector<double> totals(market.userCount(), 0.0);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        if (allocation[i].size() != market.user(i).jobs.size())
            fatal("allocation for user ", i, " has wrong job count");
        for (const auto x : allocation[i])
            totals[i] += static_cast<double>(x);
    }
    return totals;
}

} // namespace

std::vector<double>
allocatedCoresPerUser(const FisherMarket &market,
                      const JobMatrix &allocation)
{
    return sumPerUser(market, allocation);
}

std::vector<double>
allocatedCoresPerUser(const FisherMarket &market,
                      const std::vector<std::vector<int>> &allocation)
{
    return sumPerUser(market, allocation);
}

double
entitlementMape(const FisherMarket &market,
                const std::vector<std::vector<int>> &allocation)
{
    return meanAbsolutePercentageError(
        allocatedCoresPerUser(market, allocation),
        entitledCoresPerUser(market));
}

} // namespace amdahl::core
