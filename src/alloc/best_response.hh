/**
 * @file
 * Best Response (BR) — the price-anticipating market baseline
 * (Section VI-A, inspired by XChange [12]).
 *
 * BR users realize their bids move prices. User i choosing bid b on a
 * server where everyone else bids q in total receives
 *
 *     x(b) = C * b / (q + b)
 *
 * cores, so her best response maximizes sum_j w_j s_j(x_j(b_j)) over her
 * budget simplex. Each such subproblem is concave and is solved with the
 * interior-point method (per the paper); users best-respond in rounds
 * until bids reach the Nash equilibrium. BR's per-user update solves an
 * optimization where AB evaluates a closed form — the overheads study
 * quantifies that gap.
 *
 * When a user places several jobs on one server, each job bids as an
 * independent agent (job-level Nash); for the common case of at most one
 * job per (user, server) this coincides with user-level Nash.
 */

#ifndef AMDAHL_ALLOC_BEST_RESPONSE_HH
#define AMDAHL_ALLOC_BEST_RESPONSE_HH

#include "alloc/policy.hh"

namespace amdahl::alloc {

/**
 * The price-anticipating Nash baseline. Rounds stop once no bid moves
 * by more than 1e-5 of its user's budget, or after 500 rounds; each
 * subproblem runs the interior-point solver at its default options.
 */
class BestResponsePolicy : public AllocationPolicy
{
  public:
    std::string name() const override { return "BR"; }

    AllocationResult allocate(
        const core::FisherMarket &market) const override;

    /**
     * One user's best-response bid computation (exposed so the
     * overheads benchmark can time exactly this step).
     *
     * @param user        The responding user.
     * @param capacities  Server capacities.
     * @param other_bids  Total bids per server excluding this user's.
     * @return The user's optimal bids (one per job).
     */
    static std::vector<double>
    bestResponseBids(const core::MarketUser &user,
                     const std::vector<double> &capacities,
                     const std::vector<double> &other_bids);
};

} // namespace amdahl::alloc

#endif // AMDAHL_ALLOC_BEST_RESPONSE_HH
