/**
 * @file
 * Hamilton's method for rounding fractional core allocations
 * (Section VI, "Rounding Allocations").
 *
 * Fair policies produce fractional allocations; physical cores are
 * integral. Hamilton's (largest-remainder) method first grants each job
 * the floor of its fractional share, then hands out the remaining cores
 * one at a time in descending order of fractional part. It preserves the
 * server capacity exactly and never moves any job by a full core.
 */

#ifndef AMDAHL_CORE_ROUNDING_HH
#define AMDAHL_CORE_ROUNDING_HH

#include <vector>

#include "core/market.hh"

namespace amdahl::core {

/**
 * Round one server's fractional allocations to integers summing to the
 * server capacity.
 *
 * @param fractional Non-negative fractional core shares. Their sum must
 *                   not exceed @p capacity, and the shortfall
 *                   capacity - sum must be < 1 + the number of entries
 *                   (i.e., the fractional allocation must already
 *                   (nearly) exhaust the server, as market clearing
 *                   guarantees).
 * @param capacity   Integral core count to distribute.
 * @return One integer per entry; sum equals min(capacity, achievable),
 *         each entry in {floor(x), floor(x)+1}.
 */
std::vector<int> hamiltonRound(const std::vector<double> &fractional,
                               int capacity);

/**
 * Round a whole market outcome server by server.
 *
 * Linear in jobs: each server is rounded from its slice of one
 * ServerJobIndex, with its shares in user-major order.
 *
 * @param market  The market (supplies job->server placement and
 *                capacities).
 * @param outcome A fractional outcome whose servers clear.
 * @return Integer allocation matrix with the same [user][job] shape.
 */
std::vector<std::vector<int>> roundOutcome(const FisherMarket &market,
                                           const MarketOutcome &outcome);

} // namespace amdahl::core

#endif // AMDAHL_CORE_ROUNDING_HH
