/**
 * @file
 * Job placement policies.
 *
 * The paper takes job-to-server assignment as given ("each job has
 * been assigned to a server") and allocates cores afterwards. A full
 * system must also decide *where* arriving jobs go. Equilibrium prices
 * make that decision natural: a server's price is bids over capacity
 * (Eq. 8), i.e. a direct congestion signal — expensive servers are the
 * contended ones. This module provides three placement disciplines for
 * the online runtime:
 *
 *  - RoundRobin:  spread arrivals evenly, ignoring state;
 *  - LeastLoaded: pick the server currently hosting the fewest jobs;
 *  - PriceAware:  pick the cheapest server by the last market
 *                 equilibrium's prices.
 */

#ifndef AMDAHL_ALLOC_PLACEMENT_HH
#define AMDAHL_ALLOC_PLACEMENT_HH

#include <cstddef>
#include <string>
#include <vector>

namespace amdahl::alloc {

/** Placement disciplines for arriving jobs. */
enum class PlacementRule
{
    RoundRobin,
    LeastLoaded,
    PriceAware,
};

/** @return Short name for a placement rule. */
std::string toString(PlacementRule rule);

/**
 * The full mutable state of a JobPlacer: the placer holds its fields
 * here, once, and durable snapshots encode them from state().
 *
 * All vectors are sized to the server count; `live` uses one char per
 * server (1 = accepting placements).
 */
struct JobPlacerState
{
    std::vector<int> loads;
    std::vector<char> live;
    std::vector<double> prices;
    /** Placements since the last price update: prices are stale
     *  within an epoch, so each placement inflates its server's
     *  effective price to avoid herding the whole batch onto the
     *  stale-cheapest server. */
    std::vector<int> sinceUpdate;
    std::size_t nextRoundRobin = 0;
};

/**
 * Stateful placer: tracks per-server job counts and the latest price
 * vector, and picks a server for each arrival.
 */
class JobPlacer
{
  public:
    /**
     * @param rule    The discipline.
     * @param servers Number of servers (> 0).
     */
    JobPlacer(PlacementRule rule, std::size_t servers);

    /**
     * Resume from a saved state.
     *
     * @throws FatalError unless every vector of @p state has one
     *         entry per server (at least one) and the round-robin
     *         cursor names a server.
     */
    JobPlacer(PlacementRule rule, JobPlacerState state);

    /** An empty placer (no servers, nothing live): a placeholder
     *  until a sized one is assigned over it. */
    JobPlacer() = default;

    /**
     * Choose a server for an arriving job and record the placement.
     * Ties break toward the lowest server index (deterministic).
     * Only live servers are considered (all servers start live).
     *
     * @throws FatalError when no server is live; check anyLive()
     *         first when churn can empty the cluster.
     */
    std::size_t place();

    /** Record that a job on @p server finished (frees its slot). */
    void jobFinished(std::size_t server);

    /**
     * Mark a server live or dead for placement. Crashed servers stop
     * receiving arrivals and re-placements until they recover; their
     * load and price state is retained across the outage.
     */
    void setServerLive(std::size_t server, bool live);

    /** @return true when at least one server accepts placements. */
    bool anyLive() const;

    /**
     * Feed the latest equilibrium prices (PriceAware only; ignored by
     * other rules). Servers absent from this epoch's market keep
     * their previous price. A server with no observed price yet is
     * treated as free (price 0).
     *
     * @param prices One price per server.
     */
    void updatePrices(const std::vector<double> &prices);

    /** @return The full mutable state: the encoder's view, and the
     *  current jobs on each server (`loads`). */
    const JobPlacerState &state() const { return s_; }

  private:
    PlacementRule rule_ = PlacementRule::RoundRobin;
    JobPlacerState s_;
};

} // namespace amdahl::alloc

#endif // AMDAHL_ALLOC_PLACEMENT_HH
