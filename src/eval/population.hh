/**
 * @file
 * User-population generation (Section VI, "User Populations").
 *
 * The paper constructs 50 random populations: the user count n is drawn
 * uniformly from 40 to 1000 in increments of 80; budgets/entitlements
 * are drawn uniformly from 1 to 5 (integers — these are the entitlement
 * classes of Figure 10); the server count is m = s * n with multiplier s
 * drawn from {0.25, 0.5, 1, 2, 4}; each server hosts between d/2 and d
 * jobs, where d is the workload density; each job is a random Table I
 * benchmark randomly assigned to a user, and every user runs at least
 * one job.
 */

#ifndef AMDAHL_EVAL_POPULATION_HH
#define AMDAHL_EVAL_POPULATION_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"

namespace amdahl::eval {

/** Budget (entitlement) classes, inclusive: §VI draws every tenant's
 *  budget uniformly from these integers. */
inline constexpr int kMinBudgetClass = 1;
inline constexpr int kMaxBudgetClass = 5;

/** One job in a generated population. */
struct PopulationJob
{
    std::size_t server = 0;        //!< Hosting server index.
    std::size_t workloadIndex = 0; //!< Index into workloadLibrary().
};

/** A generated sharing scenario. */
struct Population
{
    std::vector<double> budgets; //!< Per user; integer-valued classes 1-5.
    std::size_t serverCount = 0;
    int coresPerServer = 24;

    /** Jobs grouped per user; defines the market's job ordering. */
    std::vector<std::vector<PopulationJob>> userJobs;

    /** @return Number of users n. */
    std::size_t userCount() const { return budgets.size(); }

    /** @return Total jobs across users. */
    std::size_t jobCount() const;

    /** @return Cores of server j. */
    int coresOf(std::size_t j) const;

    /** @return Entitlement class (1-5) of user i: her integer budget. */
    int entitlementClass(std::size_t i) const;
};

/** Knobs mirroring the paper's population parameters. */
struct PopulationOptions
{
    int users = 200;              //!< n.
    double serverMultiplier = 0.5; //!< s, so m = ceil(s * n).
    int density = 12;             //!< d: max colocated jobs per server.
    int coresPerServer = 24;      //!< C_j for every server.
    std::size_t workloadCount = 22; //!< Library size to draw jobs from.
};

/**
 * Generate one random population.
 *
 * @param rng  Deterministic generator (advanced by the call).
 * @param opts Population parameters.
 * @return A population satisfying all of the paper's constraints:
 *         servers host between ceil(d/2) and d jobs (before the
 *         every-user-has-a-job fix-up, which may add at most one job to
 *         under-capacity servers), and every user owns at least one job.
 */
Population generatePopulation(Rng &rng, const PopulationOptions &opts);

/** The paper's server multipliers {0.25, 0.5, 1, 2, 4}. */
std::vector<double> paperServerMultipliers();

/** The paper's density ladder {4, 8, 12, 16, 20, 24}. */
std::vector<int> paperDensityLadder();

} // namespace amdahl::eval

#endif // AMDAHL_EVAL_POPULATION_HH
