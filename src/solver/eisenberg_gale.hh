/**
 * @file
 * Generic Eisenberg-Gale solver: budget-weighted proportional
 * fairness.
 *
 * The Eisenberg-Gale convex program
 *
 *     max sum_i b_i log u_i(x_i)
 *     s.t. sum_{i on j} x_ij = C_j for every server j,  x >= 0
 *
 * coincides with the Fisher market equilibrium when utilities are
 * homogeneous of degree one (CES, linear, Leontief). **Amdahl utility
 * is not homogeneous** — s(x) saturates — so for this paper's
 * utilities the EG optimum is a *different* allocation concept:
 * budget-weighted proportional fairness. Empirically it sits within a
 * fraction of a core of the market equilibrium but achieves a
 * strictly higher EG objective by taking from users with flatter
 * curves (see tests and THEORY.md section 4a).
 *
 * The solver itself is the "generic utilities" approach the paper's
 * introduction contrasts against — projected gradient ascent needing
 * only utility values and gradients, paying iteration counts and
 * projections where Amdahl Bidding evaluates closed forms. It doubles
 * as (a) a proportional-fairness baseline for any concave utility and
 * (b) an independent cross-check: for homogeneous utilities it must
 * reproduce market equilibria exactly.
 */

#ifndef AMDAHL_SOLVER_EISENBERG_GALE_HH
#define AMDAHL_SOLVER_EISENBERG_GALE_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace amdahl::solver {

/** One buyer of the Eisenberg-Gale program. */
struct EgUser
{
    double budget = 1.0;

    /** Servers hosting this user's jobs (job k sits on servers[k]). */
    std::vector<std::size_t> servers;

    /** u_i(x): concave, increasing, positive for positive x. */
    std::function<double(const std::vector<double> &)> utility;

    /** Gradient of u_i at x (same arity as x). */
    std::function<std::vector<double>(const std::vector<double> &)>
        gradient;
};

/** Solver options. */
struct EgOptions
{
    double tolerance = 1e-9;   //!< Relative objective improvement stop.
    int maxIterations = 20000; //!< Gradient steps cap.
};

/** Result of the Eisenberg-Gale solve. */
struct EgResult
{
    std::vector<std::vector<double>> allocation; //!< [user][job].
    std::vector<double> prices; //!< Duals recovered at the optimum.
    double objective = 0.0;     //!< sum b_i log u_i at the optimum.
    int iterations = 0;
    bool converged = false;
};

/**
 * Solve the Eisenberg-Gale program by projected gradient ascent.
 *
 * Each gradient step is followed by a Euclidean projection of every
 * server's job shares back onto its capacity simplex (with a small
 * positivity floor so log utilities stay finite); backtracking keeps
 * the objective monotone.
 *
 * @param capacities Server capacities C_j.
 * @param users      Buyers; every server must host at least one job.
 * @param opts       Solver options.
 */
EgResult solveEisenbergGale(const std::vector<double> &capacities,
                            const std::vector<EgUser> &users,
                            const EgOptions &opts = {});

/**
 * Euclidean projection of v onto {x : sum x = total, x >= floor}.
 * Exposed for testing.
 */
std::vector<double> projectOntoSimplex(const std::vector<double> &v,
                                       double total, double floor);

} // namespace amdahl::solver

#endif // AMDAHL_SOLVER_EISENBERG_GALE_HH
