#include "interior_point.hh"

#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/timer.hh"

namespace amdahl::solver {

namespace {

constexpr double kInitialT = 1.0;          //!< Initial barrier weight.
constexpr double kTGrowth = 20.0;          //!< Weight multiplier per round.
constexpr int kMaxNewtonSteps = 200;       //!< Cap on Newton steps per round.
constexpr double kNewtonTolerance = 1e-10; //!< Newton decrement target.

/** Barrier objective value: t * g(b) + sum log b_j + log slack. */
double
barrierValue(const SeparableConcave &objective, const std::vector<double> &b,
             double slack, double t)
{
    double value = 0.0;
    for (std::size_t j = 0; j < b.size(); ++j)
        value += t * objective.value(j, b[j]) + std::log(b[j]);
    value += std::log(slack);
    return value;
}

} // namespace

std::vector<double>
maximizeOnSimplex(const SeparableConcave &objective, double budget,
                  const InteriorPointOptions &opts,
                  InteriorPointStats *stats)
{
    obs::ScopedTimer solve_timer(
        obs::timeHistogram("time.solver.interior_point_us"));
    const std::size_t m = objective.size();
    if (m == 0)
        fatal("maximizeOnSimplex: empty objective");
    if (budget <= 0.0)
        fatal("maximizeOnSimplex: budget must be positive, got ", budget);
    // The loop stops once the gap (m+1)/t reaches the tolerance: a
    // negative or NaN one is never met, and 0 only once t overflows.
    if (!(opts.tolerance > 0.0))
        fatal("maximizeOnSimplex: tolerance must be positive, got ",
              opts.tolerance);

    // Strictly feasible start: half the budget spread evenly.
    std::vector<double> b(m, budget / (2.0 * static_cast<double>(m)));
    double slack = budget * 0.5;

    InteriorPointStats local;
    double t = kInitialT;
    const double constraints = static_cast<double>(m) + 1.0;

    std::vector<double> grad(m), diag(m), step(m);
    while (true) {
        ++local.barrierRounds;
        // Centering: damped Newton on the barrier objective at weight t.
        for (int newton = 0; newton < kMaxNewtonSteps; ++newton) {
            ++local.newtonSteps;
            const double slack_grad = -1.0 / slack;
            const double slack_hess = -1.0 / (slack * slack);
            for (std::size_t j = 0; j < m; ++j) {
                grad[j] = t * objective.gradient(j, b[j]) + 1.0 / b[j] +
                          slack_grad;
                double h = t * objective.hessian(j, b[j]) -
                           1.0 / (b[j] * b[j]);
                if (h > -1e-300)
                    h = -1e-300; // Guard: objective must be concave.
                diag[j] = h;
            }
            // Newton system (D + c 11^T) step = -grad with c < 0, solved
            // via Sherman-Morrison.
            const double c = slack_hess;
            double sum_ginv = 0.0;
            double sum_inv = 0.0;
            for (std::size_t j = 0; j < m; ++j) {
                sum_ginv += grad[j] / diag[j];
                sum_inv += 1.0 / diag[j];
            }
            const double denom = 1.0 + c * sum_inv;
            // Newton decrement for maximization: grad^T step
            // = grad^T (-H^{-1}) grad >= 0 since H is negative definite.
            double decrement = 0.0;
            for (std::size_t j = 0; j < m; ++j) {
                step[j] = -(grad[j] / diag[j] -
                            c * sum_ginv / (denom * diag[j]));
                decrement += grad[j] * step[j];
            }
            if (decrement < 0.0)
                decrement = 0.0;
            AMDAHL_CHECK_FINITE(decrement);
            if (decrement * 0.5 <= kNewtonTolerance)
                break;

            // Backtracking line search keeping strict feasibility.
            double step_sum = 0.0;
            for (double s : step)
                step_sum += s;
            double alpha = 1.0;
            for (std::size_t j = 0; j < m; ++j) {
                if (step[j] < 0.0)
                    alpha = std::min(alpha, -0.99 * b[j] / step[j]);
            }
            if (step_sum > 0.0)
                alpha = std::min(alpha, 0.99 * slack / step_sum);

            const double base = barrierValue(objective, b, slack, t);
            constexpr double armijo = 1e-4;
            constexpr double shrink = 0.5;
            bool moved = false;
            for (int ls = 0; ls < 60; ++ls) {
                std::vector<double> trial(m);
                for (std::size_t j = 0; j < m; ++j)
                    trial[j] = b[j] + alpha * step[j];
                const double trial_slack = slack - alpha * step_sum;
                const double trial_value =
                    barrierValue(objective, trial, trial_slack, t);
                if (trial_value >=
                    base + armijo * alpha * decrement) {
                    b = std::move(trial);
                    slack = trial_slack;
                    moved = true;
                    // Contract: the damped step keeps the iterate
                    // strictly inside the barrier's domain.
                    if constexpr (checkedBuild) {
                        AMDAHL_ASSERT(slack > 0.0,
                                      "line search left the simplex ",
                                      "interior (slack ", slack, ")");
                        for (double bj : b) {
                            AMDAHL_ASSERT(bj > 0.0,
                                          "barrier iterate left the ",
                                          "positive orthant (", bj,
                                          ")");
                        }
                    }
                    break;
                }
                alpha *= shrink;
            }
            if (!moved)
                break; // Line search stalled: centered well enough.
        }

        local.finalGap = constraints / t;
        if (local.finalGap <= opts.tolerance)
            break;
        t *= kTGrowth;
    }

    obs::metrics().counter("solver.ip.solves").add();
    obs::metrics()
        .counter("solver.ip.barrier_rounds")
        .add(static_cast<std::uint64_t>(local.barrierRounds));
    obs::metrics()
        .counter("solver.ip.newton_steps")
        .add(static_cast<std::uint64_t>(local.newtonSteps));
    if (stats)
        *stats = local;
    return b;
}

} // namespace amdahl::solver
