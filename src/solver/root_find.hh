/**
 * @file
 * One-dimensional root finding and minimization.
 *
 * The market solvers repeatedly invert monotone scalar functions: the
 * water-filling multiplier search inverts aggregate spend as a function of
 * the KKT multiplier, and the interior-point line search brackets feasible
 * step sizes. These routines are deliberately defensive — they validate
 * brackets and iterate to a configurable tolerance.
 */

#ifndef AMDAHL_SOLVER_ROOT_FIND_HH
#define AMDAHL_SOLVER_ROOT_FIND_HH

#include <functional>

namespace amdahl::solver {

/** Options shared by the scalar solvers. */
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

/**
 * Newton-Raphson with bisection fallback (a simplified Brent scheme).
 *
 * Maintains a sign-changing bracket [lo, hi]; Newton steps that would
 * leave the bracket or fail to shrink it are replaced by bisection steps,
 * so convergence is guaranteed for continuous f.
 *
 * @param f  Function whose root is sought.
 * @param df Derivative of f.
 * @param lo Lower bracket end (f(lo) and f(hi) must differ in sign).
 * @param hi Upper bracket end.
 */
double newtonBracketed(const std::function<double(double)> &f,
                       const std::function<double(double)> &df, double lo,
                       double hi, const ScalarSolveOptions &opts = {});

/**
 * Minimize a unimodal function on [lo, hi] by golden-section search.
 *
 * @return The abscissa of the minimum, to within opts.tolerance.
 */
double minimizeGolden(const std::function<double(double)> &f, double lo,
                      double hi, const ScalarSolveOptions &opts = {});

} // namespace amdahl::solver

#endif // AMDAHL_SOLVER_ROOT_FIND_HH
