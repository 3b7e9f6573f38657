/**
 * @file
 * Karp-Flatt parallel-fraction estimation pipeline (Section IV).
 *
 * For each profiled core count x, F(x) = (1 - 1/s(x)) / (1 - 1/x)
 * estimates the parallel fraction. When Amdahl's Law holds, F(x) is flat
 * in x (Figure 1); the paper summarizes the per-workload estimates with
 * their mean (Figure 2) and variance (Figure 3) across core counts, and
 * aggregates per-dataset expectations with the geometric mean when
 * profiling multiple sampled datasets (Figure 6).
 */

#ifndef AMDAHL_PROFILING_KARP_FLATT_HH
#define AMDAHL_PROFILING_KARP_FLATT_HH

#include <vector>

#include "profiling/profiler.hh"

namespace amdahl::profiling {

/** Per-dataset Karp-Flatt analysis (paper Eq. 3 evaluated per x). */
struct FractionEstimate
{
    double datasetGB = 0.0;
    std::vector<int> coreCounts;   //!< x values (> 1).
    std::vector<double> fractions; //!< F(x) per core count, clamped.
    double expected = 0.0;         //!< E[F] = mean over core counts.
    double variance = 0.0;         //!< Var(F) over core counts.
    double medianF = 0.0;          //!< Median F(x) — outlier-robust.
};

/**
 * Karp-Flatt estimates can leave [0, 1] when speedups are sub-serial
 * (overheads exceed all parallel gains) or super-linear; estimates are
 * clamped into this range before aggregation so geometric means stay
 * defined.
 */
constexpr double minClampedFraction = 0.01;

/**
 * Run the Karp-Flatt analysis on one profiled dataset.
 *
 * @param profile   Grid profile containing the dataset.
 * @param datasetGB Which dataset to analyze.
 */
FractionEstimate estimateFraction(const WorkloadProfile &profile,
                                  double datasetGB);

/**
 * The workload-level estimate from sampled datasets: the geometric
 * mean of the per-dataset expectations E[F_d] (paper Section IV-C).
 *
 * @param profile Grid profile over all sampled datasets.
 * @return Estimated parallel fraction in (0, 1].
 */
double estimateFractionFromSamples(const WorkloadProfile &profile);

} // namespace amdahl::profiling

#endif // AMDAHL_PROFILING_KARP_FLATT_HH
