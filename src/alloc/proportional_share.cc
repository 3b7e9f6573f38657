#include "proportional_share.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hh"
#include "common/logging.hh"
#include "core/rounding.hh"

namespace amdahl::alloc {

namespace {

constexpr double unbounded = std::numeric_limits<double>::infinity();

} // namespace

ProportionalShare::ProportionalShare(
    std::vector<std::vector<double>> demands)
    : demandCaps(std::move(demands))
{}

AllocationResult
ProportionalShare::allocate(const core::FisherMarket &market) const
{
    market.validate();
    if (demandCaps) {
        if (demandCaps->size() != market.userCount())
            fatal("PS demand caps have wrong user count");
        for (std::size_t i = 0; i < market.userCount(); ++i) {
            if ((*demandCaps)[i].size() != market.user(i).jobs.size())
                fatal("PS demand caps for user ", i,
                      " have wrong job count");
        }
    }

    const std::size_t n = market.userCount();
    AllocationResult result;
    result.policyName = name();
    result.outcome.allocation.resize(n);
    result.cores.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        result.outcome.allocation[i].assign(market.user(i).jobs.size(),
                                            0.0);
        result.cores[i].assign(market.user(i).jobs.size(), 0);
    }

    const core::ServerJobIndex index(market);
    for (std::size_t j = 0; j < market.serverCount(); ++j) {
        const auto located = index.jobsOn(j);
        if (located.empty())
            continue;

        // Group jobs by user; a user's demand on the server is the sum
        // of her jobs' caps (unbounded when uncapped). The slice is in
        // user-major order, so a user's jobs here are adjacent.
        std::vector<std::size_t> users;
        std::vector<double> demands;
        std::vector<std::vector<std::size_t>> jobs_of;
        for (const auto &[i, k] : located) {
            if (users.empty() || users.back() != i) {
                users.push_back(i);
                demands.push_back(0.0);
                jobs_of.emplace_back();
            }
            jobs_of.back().push_back(k);
            const double cap =
                demandCaps ? (*demandCaps)[i][k] : unbounded;
            if (cap < 0.0)
                fatal("negative demand cap for user ", i);
            demands.back() += cap;
        }

        // Progressive filling: proportional shares with demand caps;
        // a capped user's excess is redistributed by entitlement.
        std::vector<double> granted(users.size(), 0.0);
        std::vector<bool> active(users.size(), true);
        double remaining = market.capacity(j);
        while (remaining > 1e-12) {
            double weight = 0.0;
            for (std::size_t u = 0; u < users.size(); ++u) {
                if (active[u])
                    weight += market.user(users[u]).budget;
            }
            if (weight <= 0.0)
                break; // Everyone satisfied; leftover cores stay idle.

            bool any_capped = false;
            for (std::size_t u = 0; u < users.size(); ++u) {
                if (!active[u])
                    continue;
                const double share =
                    remaining * market.user(users[u]).budget / weight;
                if (demands[u] <= share + 1e-12) {
                    granted[u] = demands[u];
                    active[u] = false;
                    any_capped = true;
                }
            }
            if (!any_capped) {
                for (std::size_t u = 0; u < users.size(); ++u) {
                    if (active[u]) {
                        granted[u] = remaining *
                                     market.user(users[u]).budget /
                                     weight;
                        active[u] = false;
                    }
                }
                remaining = 0.0;
                break;
            }
            remaining = market.capacity(j);
            for (std::size_t u = 0; u < users.size(); ++u) {
                if (!active[u])
                    remaining -= granted[u];
            }
        }

        // Split each user's server share across her jobs there:
        // proportional to caps when capped, evenly otherwise.
        std::vector<double> shares;
        shares.reserve(located.size());
        std::vector<std::pair<std::size_t, std::size_t>> owners;
        for (std::size_t u = 0; u < users.size(); ++u) {
            const std::size_t i = users[u];
            const auto &kset = jobs_of[u];
            double cap_sum = 0.0;
            bool capped = demandCaps.has_value();
            if (capped) {
                for (std::size_t k : kset)
                    cap_sum += (*demandCaps)[i][k];
            }
            for (std::size_t k : kset) {
                double portion;
                if (capped && cap_sum > 0.0) {
                    portion = granted[u] * (*demandCaps)[i][k] / cap_sum;
                } else if (capped) {
                    portion = 0.0;
                } else {
                    portion = granted[u] /
                              static_cast<double>(kset.size());
                }
                result.outcome.allocation[i][k] = portion;
                shares.push_back(portion);
                owners.emplace_back(i, k);
            }
        }

        // Round to integers: Hamilton over the cores actually granted
        // (demand caps may leave cores idle). The target rounds the
        // granted total up, never below it — Hamilton cannot hand out
        // fewer cores than the shares it rounds — and the 1e-9 slack
        // absorbs summation noise on an integral total.
        double granted_total = 0.0;
        for (double s : shares)
            granted_total += s;
        const int target = static_cast<int>(std::min(
            std::llround(market.capacity(j)),
            static_cast<long long>(std::ceil(granted_total - 1e-9))));
        const auto rounded = core::hamiltonRound(shares, target);
        for (std::size_t k = 0; k < owners.size(); ++k)
            result.cores[owners[k].first][owners[k].second] = rounded[k];
    }
    if constexpr (checkedBuild)
        auditAllocation(market, result);
    return result;
}

} // namespace amdahl::alloc
