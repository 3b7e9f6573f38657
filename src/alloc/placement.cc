#include "placement.hh"

#include <algorithm>
#include <utility>

#include "common/check.hh"
#include "common/logging.hh"

namespace amdahl::alloc {

std::string
toString(PlacementRule rule)
{
    switch (rule) {
      case PlacementRule::RoundRobin:
        return "round-robin";
      case PlacementRule::LeastLoaded:
        return "least-loaded";
      case PlacementRule::PriceAware:
        return "price-aware";
    }
    panic("unknown placement rule");
}

JobPlacer::JobPlacer(PlacementRule rule, std::size_t servers)
    : JobPlacer(rule, JobPlacerState{std::vector<int>(servers, 0),
                                     std::vector<char>(servers, 1),
                                     std::vector<double>(servers, 0.0),
                                     std::vector<int>(servers, 0), 0})
{
}

JobPlacer::JobPlacer(PlacementRule rule, JobPlacerState state)
    : rule_(rule), s_(std::move(state))
{
    const std::size_t servers = s_.loads.size();
    if (servers == 0)
        fatal("placer needs at least one server");
    if (s_.live.size() != servers || s_.prices.size() != servers ||
        s_.sinceUpdate.size() != servers)
        fatal("placer state vectors disagree on the server count ",
              servers);
    if (s_.nextRoundRobin >= servers)
        fatal("round-robin cursor ", s_.nextRoundRobin, " past ",
              servers, " servers");
}

std::size_t
JobPlacer::place()
{
    if (!anyLive())
        fatal("no live server to place on");
    const std::size_t servers = s_.loads.size();
    // First live server: the deterministic tie-break fallback for the
    // stateful rules below.
    std::size_t choice = 0;
    while (!s_.live[choice])
        ++choice;
    switch (rule_) {
      case PlacementRule::RoundRobin:
        while (!s_.live[s_.nextRoundRobin])
            s_.nextRoundRobin = (s_.nextRoundRobin + 1) % servers;
        choice = s_.nextRoundRobin;
        s_.nextRoundRobin = (s_.nextRoundRobin + 1) % servers;
        break;
      case PlacementRule::LeastLoaded:
        for (std::size_t j = choice + 1; j < servers; ++j) {
            if (s_.live[j] && s_.loads[j] < s_.loads[choice])
                choice = j;
        }
        break;
      case PlacementRule::PriceAware: {
        // Effective price inflates with placements made since the
        // last update, so a batch of arrivals spreads instead of
        // herding onto the stale-cheapest server.
        auto effective = [&](std::size_t j) {
            return s_.prices[j] * (1.0 + s_.sinceUpdate[j]) +
                   1e-9 * s_.sinceUpdate[j];
        };
        for (std::size_t j = choice + 1; j < servers; ++j) {
            if (s_.live[j] && effective(j) < effective(choice))
                choice = j;
        }
        ++s_.sinceUpdate[choice];
        break;
      }
    }
    ++s_.loads[choice];
    return choice;
}

void
JobPlacer::jobFinished(std::size_t server)
{
    if (server >= s_.loads.size())
        fatal("server index ", server, " out of range");
    if (s_.loads[server] <= 0)
        panic("job finished on server ", server, " with no jobs");
    --s_.loads[server];
}

void
JobPlacer::setServerLive(std::size_t server, bool live)
{
    if (server >= s_.live.size())
        fatal("server index ", server, " out of range");
    s_.live[server] = live ? 1 : 0;
}

bool
JobPlacer::anyLive() const
{
    return std::any_of(s_.live.begin(), s_.live.end(),
                       [](char up) { return up != 0; });
}

void
JobPlacer::updatePrices(const std::vector<double> &prices)
{
    if (prices.size() != s_.prices.size())
        fatal("price vector has ", prices.size(), " entries, expected ",
              s_.prices.size());
    // Contract: placement steers by price, so a NaN here silently
    // herds every arrival onto one server.
    if constexpr (checkedBuild) {
        for (double p : prices) {
            AMDAHL_CHECK_FINITE(p);
            AMDAHL_ASSERT(p >= 0.0, "negative posted price ", p);
        }
    }
    s_.prices = prices;
    std::fill(s_.sinceUpdate.begin(), s_.sinceUpdate.end(), 0);
}

} // namespace amdahl::alloc
