/**
 * @file
 * One-dimensional root finding by bisection.
 *
 * The water-filling multiplier search inverts aggregate spend, a
 * monotone function of the KKT multiplier. The routine is deliberately
 * defensive — it validates its bracket and iterates to a configurable
 * tolerance.
 */

#ifndef AMDAHL_SOLVER_ROOT_FIND_HH
#define AMDAHL_SOLVER_ROOT_FIND_HH

#include <functional>

namespace amdahl::solver {

/** Options of the scalar solver. */
struct ScalarSolveOptions
{
    double tolerance = 1e-12; //!< Width of the final bracket / step size.
    int maxIterations = 200;  //!< Hard iteration cap.
};

/**
 * Find a root of f in [lo, hi] by bisection.
 *
 * Requires f(lo) and f(hi) to have opposite signs (or one of them to be
 * zero). Stops early, without evaluating f again, once lo and hi are
 * adjacent doubles: no further step could move the bracket.
 *
 * @param f  Continuous function.
 * @param lo Lower bracket end.
 * @param hi Upper bracket end (lo < hi).
 * @return A point x with |bracket| <= tolerance or |f(x)| == 0.
 */
double bisect(const std::function<double(double)> &f, double lo, double hi,
              const ScalarSolveOptions &opts = {});

} // namespace amdahl::solver

#endif // AMDAHL_SOLVER_ROOT_FIND_HH
