#include "placement.hh"

#include <algorithm>

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
    : rule_(rule), loads(servers, 0), live_(servers, 1),
      prices_(servers, 0.0), sinceUpdate(servers, 0)
{
    if (servers == 0)
        fatal("placer needs at least one server");
}

std::size_t
JobPlacer::place()
{
    if (!anyLive())
        fatal("no live server to place on");
    // First live server: the deterministic tie-break fallback for the
    // stateful rules below.
    std::size_t choice = 0;
    while (!live_[choice])
        ++choice;
    switch (rule_) {
      case PlacementRule::RoundRobin:
        while (!live_[nextRoundRobin])
            nextRoundRobin = (nextRoundRobin + 1) % loads.size();
        choice = nextRoundRobin;
        nextRoundRobin = (nextRoundRobin + 1) % loads.size();
        break;
      case PlacementRule::LeastLoaded:
        for (std::size_t j = choice + 1; j < loads.size(); ++j) {
            if (live_[j] && loads[j] < loads[choice])
                choice = j;
        }
        break;
      case PlacementRule::PriceAware: {
        // Effective price inflates with placements made since the
        // last update, so a batch of arrivals spreads instead of
        // herding onto the stale-cheapest server.
        auto effective = [&](std::size_t j) {
            return prices_[j] * (1.0 + sinceUpdate[j]) +
                   1e-9 * sinceUpdate[j];
        };
        for (std::size_t j = choice + 1; j < prices_.size(); ++j) {
            if (live_[j] && effective(j) < effective(choice))
                choice = j;
        }
        ++sinceUpdate[choice];
        break;
      }
    }
    ++loads[choice];
    return choice;
}

void
JobPlacer::jobFinished(std::size_t server)
{
    if (server >= loads.size())
        fatal("server index ", server, " out of range");
    if (loads[server] <= 0)
        panic("job finished on server ", server, " with no jobs");
    --loads[server];
}

void
JobPlacer::setServerLive(std::size_t server, bool live)
{
    if (server >= live_.size())
        fatal("server index ", server, " out of range");
    live_[server] = live ? 1 : 0;
}

bool
JobPlacer::anyLive() const
{
    return std::any_of(live_.begin(), live_.end(),
                       [](char up) { return up != 0; });
}

void
JobPlacer::updatePrices(const std::vector<double> &prices)
{
    if (prices.size() != prices_.size())
        fatal("price vector has ", prices.size(), " entries, expected ",
              prices_.size());
    // Contract: placement steers by price, so a NaN here silently
    // herds every arrival onto one server.
    if constexpr (checkedBuild) {
        for (double p : prices) {
            AMDAHL_CHECK_FINITE(p);
            AMDAHL_ASSERT(p >= 0.0, "negative posted price ", p);
        }
    }
    prices_ = prices;
    std::fill(sinceUpdate.begin(), sinceUpdate.end(), 0);
}

int
JobPlacer::load(std::size_t server) const
{
    if (server >= loads.size())
        fatal("server index ", server, " out of range");
    return loads[server];
}

JobPlacerState
JobPlacer::saveState() const
{
    return {loads, {live_.begin(), live_.end()}, prices_, sinceUpdate,
            nextRoundRobin};
}

void
JobPlacer::restoreState(const JobPlacerState &s)
{
    const std::size_t servers = loads.size();
    if (s.loads.size() != servers || s.live.size() != servers ||
        s.prices.size() != servers || s.sinceUpdate.size() != servers)
        fatal("placer state sized for ", s.loads.size(),
              " servers, expected ", servers);
    loads = s.loads;
    live_.assign(s.live.begin(), s.live.end());
    prices_ = s.prices;
    sinceUpdate = s.sinceUpdate;
    nextRoundRobin = s.nextRoundRobin % servers;
}

} // namespace amdahl::alloc
