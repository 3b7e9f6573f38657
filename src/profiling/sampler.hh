/**
 * @file
 * Dataset sampling plans (Section IV-A).
 *
 * Estimating the parallel fraction requires profiling at several core
 * counts, which is too slow on full datasets. The paper samples
 * uniformly and randomly from the original dataset to create smaller
 * ones: 1-6 GB subsets for Spark inputs, and PARSEC's simlarge-class
 * inputs standing in for native. Sampled datasets must still produce
 * more tasks than processors, or there is insufficient parallelism
 * (paper footnote 1) — the planner enforces this where the dataset
 * allows it.
 */

#ifndef AMDAHL_PROFILING_SAMPLER_HH
#define AMDAHL_PROFILING_SAMPLER_HH

#include <vector>

#include "sim/workload.hh"

namespace amdahl::profiling {

/** A set of dataset sizes to profile. */
struct SamplingPlan
{
    std::vector<double> sampleSizesGB; //!< Reduced inputs, ascending.
    double fullSizeGB = 0.0;           //!< The original dataset.
};

/**
 * Build the sampling plan for a workload.
 *
 * Spark inputs take the 1-6 GB ladder entries below the dataset size,
 * or 15-75% of the input in 15% steps when fewer than three entries
 * fit; each sample is then raised to at least 24 blocks, one task per
 * allocatable core of the Table II server, unless that would leave a
 * single size. PARSEC inputs take 20-50% of native in 10% steps.
 *
 * @param workload The benchmark (suite decides the ladder).
 * @return Sample sizes plus the full size.
 */
SamplingPlan planSamples(const sim::WorkloadSpec &workload);

} // namespace amdahl::profiling

#endif // AMDAHL_PROFILING_SAMPLER_HH
