/**
 * @file
 * Entitlement accounting (Sections II-A and VI-D).
 *
 * Entitlements specify each user's minimum share of the datacenter.
 * Budgets are set proportional to entitlements, so a user's entitled
 * cores are (b_i / B) * sum_j C_j datacenter-wide and (b_i / B) * C_j on
 * each server. Figure 11 evaluates policies by the Mean Absolute
 * Percentage Error between allocated and entitled cores; these helpers
 * compute both sides.
 */

#ifndef AMDAHL_CORE_ENTITLEMENT_HH
#define AMDAHL_CORE_ENTITLEMENT_HH

#include <vector>

#include "core/market.hh"

namespace amdahl::core {

/** @return Entitled datacenter-wide cores per user, (b_i/B) * sum C_j. */
std::vector<double> entitledCoresPerUser(const FisherMarket &market);

/** @return Total allocated cores per user under the given allocation. */
std::vector<double> allocatedCoresPerUser(const FisherMarket &market,
                                          const JobMatrix &allocation);

/** Integer-allocation overload. */
std::vector<double>
allocatedCoresPerUser(const FisherMarket &market,
                      const std::vector<std::vector<int>> &allocation);

/**
 * MAPE of integral datacenter-wide allocations against entitlements
 * (Figure 11), summed in user order.
 *
 * @return 100/n * sum_i |alloc_i - ent_i| / ent_i.
 */
double entitlementMape(const FisherMarket &market,
                       const std::vector<std::vector<int>> &allocation);

} // namespace amdahl::core

#endif // AMDAHL_CORE_ENTITLEMENT_HH
