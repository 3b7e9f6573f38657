#include "sampler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace amdahl::profiling {

namespace {

/** Spark sample ladder (GB), clipped to the dataset size. */
constexpr double kSparkLadderGB[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};

/** Fractions of the full input used when the ladder is too coarse
 *  (small datasets). */
constexpr double kSmallDatasetFractions[] = {0.15, 0.30, 0.45, 0.60,
                                             0.75};

/** PARSEC simlarge-class inputs as fractions of native. */
constexpr double kParsecFractions[] = {0.20, 0.30, 0.40, 0.50};

/** Minimum tasks per sample (when the dataset allows it): one per
 *  allocatable core of the Table II server. */
constexpr int kMinTasksPerSample = 24;

} // namespace

SamplingPlan
planSamples(const sim::WorkloadSpec &workload)
{
    workload.validate();
    SamplingPlan plan;
    plan.fullSizeGB = workload.datasetGB;

    if (workload.suite == sim::Suite::Spark) {
        // Prefer the absolute ladder; it matches the paper's 1-6 GB
        // subsets of the 24 GB webspam input.
        for (double gb : kSparkLadderGB) {
            if (gb < workload.datasetGB)
                plan.sampleSizesGB.push_back(gb);
        }
        if (plan.sampleSizesGB.size() < 3) {
            // Small datasets (kmeans's 327 MB census file): fall back to
            // proportional subsets.
            plan.sampleSizesGB.clear();
            for (double frac : kSmallDatasetFractions)
                plan.sampleSizesGB.push_back(frac * workload.datasetGB);
        }
        // Enforce the minimum-parallelism footnote where possible: a
        // sample should yield at least kMinTasksPerSample blocks.
        const double min_gb = kMinTasksPerSample * workload.blockSizeGB;
        auto clamped = plan.sampleSizesGB;
        for (double &gb : clamped)
            gb = std::max(gb, std::min(min_gb, workload.datasetGB));
        std::sort(clamped.begin(), clamped.end());
        clamped.erase(std::unique(clamped.begin(), clamped.end()),
                      clamped.end());
        // Tiny datasets (kmeans's 327 MB census file) cannot satisfy
        // the footnote without collapsing the plan to a single size;
        // keep the unclamped ladder there — insufficient parallelism
        // is exactly the pathology the paper reports for them.
        if (clamped.size() >= 2)
            plan.sampleSizesGB = std::move(clamped);
    } else {
        // PARSEC: simlarge-class inputs are fixed fractions of native.
        for (double frac : kParsecFractions)
            plan.sampleSizesGB.push_back(frac * workload.datasetGB);
    }

    if (plan.sampleSizesGB.empty())
        fatal("no sample sizes planned for ", workload.name);
    return plan;
}

} // namespace amdahl::profiling
