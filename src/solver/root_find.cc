#include "root_find.hh"

#include <cmath>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace amdahl::solver {

double
bisect(const std::function<double(double)> &f, double lo, double hi,
       const ScalarSolveOptions &opts)
{
    // Leaf of every waterFill call; a map lookup per invocation would
    // dominate the work, so the counter binds once per process.
    static obs::Counter &calls =
        obs::metrics().counter("solver.bisect.calls");
    calls.add();
    if (!(lo < hi))
        fatal("bisect: invalid bracket [", lo, ", ", hi, "]");
    double flo = f(lo);
    double fhi = f(hi);
    if (flo == 0.0)
        return lo;
    if (fhi == 0.0)
        return hi;
    if ((flo > 0.0) == (fhi > 0.0))
        fatal("bisect: f has the same sign at both bracket ends");

    for (int it = 0; it < opts.maxIterations; ++it) {
        const double mid = 0.5 * (lo + hi);
        // lo and hi are adjacent doubles: the bracket cannot shrink,
        // every later step would leave it as it is, and the loop
        // would end returning this same mid. Stop without calling f.
        if (mid == lo || mid == hi)
            return mid;
        const double fmid = f(mid);
        if (fmid == 0.0 || hi - lo <= opts.tolerance)
            return mid;
        if ((fmid > 0.0) == (flo > 0.0)) {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

double
newtonBracketed(const std::function<double(double)> &f,
                const std::function<double(double)> &df, double lo,
                double hi, const ScalarSolveOptions &opts)
{
    static obs::Counter &calls =
        obs::metrics().counter("solver.newton.calls");
    calls.add();
    if (!(lo < hi))
        fatal("newtonBracketed: invalid bracket [", lo, ", ", hi, "]");
    double flo = f(lo);
    double fhi = f(hi);
    if (flo == 0.0)
        return lo;
    if (fhi == 0.0)
        return hi;
    if ((flo > 0.0) == (fhi > 0.0))
        fatal("newtonBracketed: f has the same sign at both bracket ends");

    double x = 0.5 * (lo + hi);
    for (int it = 0; it < opts.maxIterations; ++it) {
        const double fx = f(x);
        if (fx == 0.0 || hi - lo <= opts.tolerance)
            return x;
        // Maintain the sign-changing bracket.
        if ((fx > 0.0) == (flo > 0.0)) {
            lo = x;
            flo = fx;
        } else {
            hi = x;
        }
        const double dfx = df(x);
        double next = x - (dfx != 0.0 ? fx / dfx : 0.0);
        if (dfx == 0.0 || next <= lo || next >= hi ||
            !std::isfinite(next)) {
            next = 0.5 * (lo + hi); // Newton unusable: bisect.
        }
        x = next;
    }
    return x;
}

double
minimizeGolden(const std::function<double(double)> &f, double lo, double hi,
               const ScalarSolveOptions &opts)
{
    if (!(lo < hi))
        fatal("minimizeGolden: invalid interval [", lo, ", ", hi, "]");
    constexpr double inv_phi = 0.6180339887498949; // 1/phi
    double a = lo;
    double b = hi;
    double c = b - inv_phi * (b - a);
    double d = a + inv_phi * (b - a);
    double fc = f(c);
    double fd = f(d);
    for (int it = 0; it < opts.maxIterations && b - a > opts.tolerance;
         ++it) {
        if (fc < fd) {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    return 0.5 * (a + b);
}

} // namespace amdahl::solver
