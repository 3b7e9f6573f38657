/**
 * @file
 * Amdahl's Law and the Karp-Flatt metric (Sections II-D and IV).
 *
 * These are the two scalar formulas the whole framework rests on:
 *
 *   speedup:    s(x) = x / (f + (1 - f) x)          [paper Eq. 1]
 *   Karp-Flatt: F(x) = (1 - 1/s) / (1 - 1/x)        [paper Eq. 2/3]
 *
 * The speedup form here is the paper's algebraic simplification of
 * T_1 / ((1-F) T_1 + T_1 F / x); it accepts *real* x >= 0 because market
 * allocations are fractional before rounding.
 */

#ifndef AMDAHL_CORE_AMDAHL_HH
#define AMDAHL_CORE_AMDAHL_HH

namespace amdahl::core {

/**
 * Amdahl speedup on x cores.
 *
 * @param f Parallel fraction in [0, 1].
 * @param x Core allocation, x >= 0 (fractional allowed).
 * @return s(x) = x / (f + (1-f) x); s(0) = 0, s(1) = 1.
 */
double amdahlSpeedup(double f, double x);

/**
 * Derivative of the Amdahl speedup with respect to the allocation.
 *
 * @return s'(x) = f / (f + (1-f) x)^2 — positive and decreasing:
 *         diminishing marginal returns.
 */
double amdahlSpeedupDerivative(double f, double x);

/**
 * The Karp-Flatt metric: the parallel fraction implied by a measured
 * speedup.
 *
 * @param speedup Measured s(x) > 0.
 * @param x       Core count used in the measurement, x > 1.
 * @return F = (1 - 1/s) / (1 - 1/x). Can exceed [0, 1] when the
 *         measurement is super-linear or sub-serial; callers decide how
 *         to treat such estimates.
 */
double karpFlatt(double speedup, double x);

} // namespace amdahl::core

#endif // AMDAHL_CORE_AMDAHL_HH
