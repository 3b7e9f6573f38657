#include "karp_flatt.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/invariants.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/amdahl.hh"

namespace amdahl::profiling {

FractionEstimate
estimateFraction(const WorkloadProfile &profile, double datasetGB)
{
    FractionEstimate est;
    est.datasetGB = datasetGB;
    est.coreCounts = profile.multiCoreCounts();
    if (est.coreCounts.empty())
        fatal("Karp-Flatt needs profiles beyond one core");

    const auto speedups = profile.speedups(datasetGB);
    OnlineStats stats;
    for (std::size_t k = 0; k < est.coreCounts.size(); ++k) {
        const double x = static_cast<double>(est.coreCounts[k]);
        // The metric is indeterminate at x == 1 (core::karpFlatt
        // defines it by its clamped limit); a single-core point
        // carries no parallelism signal, so keep the estimate
        // well-defined by clamping rather than dividing by 1 - 1/x.
        double f = x > 1.0 ? core::karpFlatt(speedups[k], x)
                           : minClampedFraction;
        f = std::clamp(f, minClampedFraction, 1.0);
        if constexpr (checkedBuild) {
            invariants::CheckParallelFraction(f,
                                              "karp-flatt estimate");
        }
        est.fractions.push_back(f);
        stats.add(f);
    }
    est.expected = stats.mean();
    est.variance = stats.variance();
    est.medianF = median(est.fractions);
    AMDAHL_CHECK_FINITE(est.expected);
    AMDAHL_CHECK_FINITE(est.variance);
    return est;
}

double
estimateFractionFromSamples(const WorkloadProfile &profile)
{
    std::vector<double> expectations;
    expectations.reserve(profile.datasetsGB.size());
    for (double gb : profile.datasetsGB)
        expectations.push_back(estimateFraction(profile, gb).expected);
    const double f = std::min(1.0, geometricMean(expectations));
    if constexpr (checkedBuild)
        invariants::CheckParallelFraction(f, "sampled karp-flatt");
    return f;
}

} // namespace amdahl::profiling
