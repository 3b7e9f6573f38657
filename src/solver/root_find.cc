#include "root_find.hh"

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

} // namespace amdahl::solver
