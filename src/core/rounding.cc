#include "rounding.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/timer.hh"

namespace amdahl::core {

std::vector<int>
hamiltonRound(const std::vector<double> &fractional, int capacity)
{
    if (capacity < 0)
        fatal("capacity must be non-negative, got ", capacity);

    std::vector<int> rounded(fractional.size(), 0);
    std::vector<double> remainders(fractional.size(), 0.0);
    long long granted = 0;
    double total = 0.0;
    for (std::size_t k = 0; k < fractional.size(); ++k) {
        if (fractional[k] < -1e-9)
            fatal("negative fractional allocation ", fractional[k]);
        const double x = std::max(0.0, fractional[k]);
        total += x;
        rounded[k] = static_cast<int>(std::floor(x + 1e-12));
        remainders[k] = x - rounded[k];
        granted += rounded[k];
    }
    if (total > capacity * (1.0 + 1e-9) + 1e-6) {
        fatal("fractional allocations sum to ", total,
              ", exceeding capacity ", capacity);
    }

    long long excess = capacity - granted;
    if (excess > static_cast<long long>(fractional.size())) {
        fatal("allocation leaves ", excess, " cores unassigned across ",
              fractional.size(),
              " jobs; the fractional allocation must exhaust the server");
    }

    // Hand out excess cores in descending order of fractional part
    // (ties broken by index for determinism).
    std::vector<std::size_t> order(fractional.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return remainders[a] > remainders[b];
                     });
    for (std::size_t k = 0; k < order.size() && excess > 0; ++k) {
        ++rounded[order[k]];
        --excess;
    }
    // Contract: Hamilton rounding never over-grants the server and
    // never takes a core away that the floor already granted.
    if constexpr (checkedBuild) {
        long long sum = 0;
        for (int r : rounded) {
            AMDAHL_ASSERT(r >= 0, "negative rounded grant ", r);
            sum += r;
        }
        AMDAHL_ASSERT(sum <= capacity, "rounded grants sum to ", sum,
                      " over capacity ", capacity);
        AMDAHL_ASSERT(sum >= granted, "rounding dropped cores: ", sum,
                      " granted after ", granted, " floors");
    }
    return rounded;
}

std::vector<std::vector<int>>
roundOutcome(const FisherMarket &market, const MarketOutcome &outcome)
{
    obs::ScopedTimer round_timer(
        obs::timeHistogram("time.rounding.outcome_us"));
    obs::metrics().counter("rounding.outcomes").add();

    const std::size_t n = market.userCount();
    if (outcome.allocation.size() != n)
        fatal("outcome allocation has wrong user count");

    std::vector<std::vector<int>> integral(n);
    for (std::size_t i = 0; i < n; ++i)
        integral[i].assign(outcome.allocation[i].size(), 0);

    // Per server: gather that server's job shares, round, scatter back.
    const ServerJobIndex index(market);
    std::vector<double> shares;
    for (std::size_t j = 0; j < market.serverCount(); ++j) {
        const auto located = index.jobsOn(j);
        if (located.empty())
            continue;
        shares.clear();
        for (const auto &[i, k] : located)
            shares.push_back(outcome.allocation[i][k]);
        const int capacity =
            static_cast<int>(std::llround(market.capacity(j)));
        const auto rounded = hamiltonRound(shares, capacity);
        for (std::size_t e = 0; e < located.size(); ++e)
            integral[located[e].user][located[e].job] = rounded[e];
    }
    return integral;
}

} // namespace amdahl::core
