/**
 * @file
 * Log-barrier interior-point solver for separable concave maximization
 * over a budget simplex.
 *
 * The Best-Response (BR) baseline from Section VI-A optimizes each user's
 * price-anticipating bids with the interior-point method:
 *
 *     max g(b) = sum_j g_j(b_j)   s.t.  b_j >= 0,  sum_j b_j <= budget.
 *
 * Each g_j is concave and twice differentiable, so the barrier problem
 *
 *     max t * g(b) + sum_j log(b_j) + log(budget - sum_j b_j)
 *
 * is solved with damped Newton steps. The Hessian is diagonal plus a
 * rank-one term from the shared slack, so each Newton system is solved in
 * O(m) with the Sherman-Morrison identity; the paper's observation that BR
 * is far more expensive than Amdahl Bidding survives even with this
 * structure exploited.
 */

#ifndef AMDAHL_SOLVER_INTERIOR_POINT_HH
#define AMDAHL_SOLVER_INTERIOR_POINT_HH

#include <cstddef>
#include <vector>

namespace amdahl::solver {

/**
 * A separable concave objective: g(b) = sum_j g_j(b_j).
 *
 * Implementations must guarantee concavity per coordinate
 * (hessian() <= 0) for the solver's convergence proof to apply.
 */
class SeparableConcave
{
  public:
    virtual ~SeparableConcave() = default;

    /** @return Number of coordinates m. */
    virtual std::size_t size() const = 0;

    /** @return g_j(b). */
    virtual double value(std::size_t j, double b) const = 0;

    /** @return g_j'(b). */
    virtual double gradient(std::size_t j, double b) const = 0;

    /** @return g_j''(b); must be <= 0. */
    virtual double hessian(std::size_t j, double b) const = 0;
};

/**
 * Tuning knobs for the interior-point solver. The barrier schedule is
 * fixed: weight t starts at 1 and grows 20x per round, and each round
 * centers with at most 200 Newton steps, stopping once half the Newton
 * decrement is at most 1e-10.
 */
struct InteriorPointOptions
{
    double tolerance = 1e-9; //!< Duality-gap target (m+1)/t; > 0.
};

/** Convergence diagnostics. */
struct InteriorPointStats
{
    int barrierRounds = 0;
    int newtonSteps = 0;
    double finalGap = 0.0;
};

/**
 * Maximize a separable concave objective over the budget simplex.
 *
 * @param objective The per-coordinate terms.
 * @param budget    Total budget (> 0).
 * @param opts      Solver options.
 * @param stats     Optional diagnostics out-parameter.
 * @return The maximizing b (strictly interior; coordinates may be
 *         arbitrarily close to 0).
 */
std::vector<double> maximizeOnSimplex(const SeparableConcave &objective,
                                      double budget,
                                      const InteriorPointOptions &opts = {},
                                      InteriorPointStats *stats = nullptr);

} // namespace amdahl::solver

#endif // AMDAHL_SOLVER_INTERIOR_POINT_HH
