/**
 * @file
 * The Amdahl utility function (Section V-A, Eq. 4).
 *
 * User i runs jobs on several servers; job j has parallel fraction f_ij
 * and completes w_ij units of work per unit time on one core. Utility is
 * work-weighted normalized progress:
 *
 *     u_i(x_i) = sum_j w_ij s_ij(x_ij) / sum_j w_ij
 *
 * Utility is 1 when every job holds exactly one core, strictly
 * increasing, concave, and continuous — the properties that guarantee a
 * Fisher-market equilibrium exists (the paper cites Arrow-Debreu via
 * [36]).
 */

#ifndef AMDAHL_CORE_UTILITY_HH
#define AMDAHL_CORE_UTILITY_HH

#include <cstddef>
#include <vector>

namespace amdahl::core {

/** One job's term of an Amdahl utility function. */
struct UtilityTerm
{
    double parallelFraction = 0.5; //!< f_ij in [0, 1].
    double weight = 1.0;           //!< w_ij > 0, work rate at one core.
};

/**
 * Amdahl utility over a user's jobs.
 *
 * The job order here defines the coordinate order of allocation vectors
 * passed to value()/gradient().
 */
class AmdahlUtility
{
  public:
    /** Construct from per-job terms (at least one). */
    explicit AmdahlUtility(std::vector<UtilityTerm> terms);

    /** @return Number of jobs. */
    std::size_t size() const { return terms_.size(); }

    /** @return Term of job j. */
    const UtilityTerm &term(std::size_t j) const;

    /** @return Sum of job weights (the normalizer in Eq. 4). */
    double totalWeight() const { return weightSum; }

    /** @return u(x) for allocation x (one entry per job, each >= 0). */
    double value(const std::vector<double> &x) const;

    /**
     * Un-normalized utility of a single job: w_j s_j(x).
     */
    double jobUtility(std::size_t j, double x) const;

    /** @return du/dx_j at allocation x_j (un-normalized by weight sum). */
    double jobMarginal(std::size_t j, double x) const;

    /** @return Gradient of u at x. */
    std::vector<double> gradient(const std::vector<double> &x) const;

  private:
    std::vector<UtilityTerm> terms_;
    double weightSum = 0.0;
};

} // namespace amdahl::core

#endif // AMDAHL_CORE_UTILITY_HH
