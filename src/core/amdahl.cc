#include "amdahl.hh"

#include "common/check.hh"
#include "common/logging.hh"

namespace amdahl::core {

namespace {

void
checkFraction(double f)
{
    if (f < 0.0 || f > 1.0)
        fatal("parallel fraction ", f, " outside [0, 1]");
}

} // namespace

double
amdahlSpeedup(double f, double x)
{
    checkFraction(f);
    if (x < 0.0)
        fatal("core allocation must be non-negative, got ", x);
    const double denom = f + (1.0 - f) * x;
    if (denom == 0.0)
        return 0.0; // f == 0, x == 0.
    AMDAHL_CHECK_FINITE(x / denom);
    return x / denom;
}

double
amdahlSpeedupDerivative(double f, double x)
{
    checkFraction(f);
    if (x < 0.0)
        fatal("core allocation must be non-negative, got ", x);
    const double denom = f + (1.0 - f) * x;
    if (denom == 0.0) {
        // f == 0, x == 0: a serial workload's speedup is the constant
        // 1, so its derivative extends continuously to 0.
        return 0.0;
    }
    return f / (denom * denom);
}

double
karpFlatt(double speedup, double x)
{
    if (speedup <= 0.0)
        fatal("speedup must be positive, got ", speedup);
    if (x < 1.0)
        fatal("Karp-Flatt needs at least one core, got ", x);
    if (x == 1.0) {
        // The metric is 0/0 at a single core: no parallelism is
        // observable. Return the clamped one-sided limit instead of
        // dividing by zero — fully serial when no speedup was
        // measured, fully parallel for (nonsensical) superlinear
        // single-core speedups.
        return speedup > 1.0 ? 1.0 : 0.0;
    }
    return (1.0 - 1.0 / speedup) / (1.0 - 1.0 / x);
}

} // namespace amdahl::core
