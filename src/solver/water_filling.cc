#include "water_filling.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/timer.hh"
#include "solver/root_find.hh"

namespace amdahl::solver {

namespace {

// The Amdahl speedup curve degenerates at f == 0 (constant) and f == 1
// (linear); clamping keeps the closed forms finite without visibly moving
// the optimum for realistic parallel fractions.
constexpr double fracFloor = 1e-9;
constexpr double fracCeil = 1.0 - 1e-9;

double
clampFraction(double f)
{
    return std::min(std::max(f, fracFloor), fracCeil);
}

/** Optimal cores on one server for a given multiplier. */
double
coresAtMultiplier(const WaterFillItem &item, double f, double lambda)
{
    // KKT stationarity: w f / (p (f + (1-f) x)^2) = lambda when x > 0.
    const double radicand = item.weight * f / (lambda * item.price);
    const double x = (std::sqrt(radicand) - f) / (1.0 - f);
    return std::max(0.0, x);
}

} // namespace

WaterFillResult
waterFill(const std::vector<WaterFillItem> &items, double budget)
{
    // The equilibrium certificate (verifyEquilibrium) runs waterFill
    // once per user per certified allocation. Bind the counter once
    // per process so that cost is one increment, not a map lookup.
    static obs::Counter &solves =
        obs::metrics().counter("solver.wf.solves");
    solves.add();
    obs::ScopedTimer solve_timer(
        obs::timeHistogram("time.solver.water_filling_us"));
    if (items.empty())
        fatal("waterFill: no items");
    if (budget <= 0.0)
        fatal("waterFill: budget must be positive, got ", budget);

    std::vector<double> fracs(items.size());
    double lambda_hi = 0.0;
    for (std::size_t j = 0; j < items.size(); ++j) {
        const auto &item = items[j];
        if (item.price <= 0.0)
            fatal("waterFill: non-positive price at item ", j);
        if (item.weight <= 0.0)
            fatal("waterFill: non-positive weight at item ", j);
        fracs[j] = clampFraction(item.parallelFraction);
        // Marginal utility of money at zero spend: w / (p f).
        lambda_hi = std::max(lambda_hi,
                             item.weight / (item.price * fracs[j]));
    }

    auto spend_at = [&](double lambda) {
        double total = 0.0;
        for (std::size_t j = 0; j < items.size(); ++j) {
            total += items[j].price *
                     coresAtMultiplier(items[j], fracs[j], lambda);
        }
        return total;
    };

    // Bracket lambda*: spend(lambda_hi) == 0 < budget; walk lambda down
    // until aggregate spend exceeds the budget.
    double lambda_lo = lambda_hi;
    while (spend_at(lambda_lo) < budget) {
        lambda_lo *= 0.5;
        if (lambda_lo < 1e-300)
            panic("waterFill: failed to bracket the multiplier");
    }

    // The spend-vs-lambda curve is extremely stiff when some parallel
    // fraction approaches 1, so bisect until the bracket is two
    // adjacent doubles (bisect stops there, typically after ~55 of
    // the 200 steps allowed) rather than stopping at a width.
    ScalarSolveOptions opts;
    opts.tolerance = 0.0;
    opts.maxIterations = 200;
    const double lambda = bisect(
        [&](double l) { return spend_at(l) - budget; }, lambda_lo,
        lambda_hi, opts);

    WaterFillResult result;
    result.multiplier = lambda;
    result.spend.resize(items.size());
    result.cores.resize(items.size());
    double spent = 0.0;
    for (std::size_t j = 0; j < items.size(); ++j) {
        const double x = coresAtMultiplier(items[j], fracs[j], lambda);
        result.cores[j] = x;
        result.spend[j] = items[j].price * x;
        spent += result.spend[j];
    }
    // Distribute bisection residual proportionally so spends sum to the
    // budget exactly (the caller relies on budget exhaustion).
    if (spent > 0.0) {
        const double scale = budget / spent;
        for (std::size_t j = 0; j < items.size(); ++j) {
            result.spend[j] *= scale;
            result.cores[j] = result.spend[j] / items[j].price;
        }
    }
    for (std::size_t j = 0; j < items.size(); ++j) {
        const double x = result.cores[j];
        const double f = fracs[j];
        result.utility += items[j].weight * x / (f + (1.0 - f) * x);
    }
    return result;
}

} // namespace amdahl::solver
