#include "predictor.hh"

#include <cmath>

#include "common/logging.hh"
#include "core/amdahl.hh"
#include "profiling/karp_flatt.hh"

namespace amdahl::profiling {

namespace {

/** Linear-fit R^2 below which a quadratic model is considered. */
constexpr double kLinearR2Threshold = 0.995;

} // namespace

PerformancePredictor
PerformancePredictor::fit(const WorkloadProfile &profile,
                          const PredictorOptions &opts)
{
    if (profile.datasetsGB.size() < 2) {
        fatal("predictor needs at least two dataset sizes, got ",
              profile.datasetsGB.size());
    }

    PerformancePredictor predictor;
    predictor.fraction = estimateFractionFromSamples(profile);

    for (int x : profile.coreCounts) {
        std::vector<double> sizes;
        std::vector<double> times;
        for (double gb : profile.datasetsGB) {
            sizes.push_back(gb);
            times.push_back(profile.secondsAt(gb, x));
        }
        predictor.models.emplace(x, solver::fitLinear(sizes, times));
        predictor.referenceCores = std::max(predictor.referenceCores, x);
    }

    // Optional model selection: if the reference-count linear model
    // fits poorly (quadratically scaling workloads like QR
    // decomposition), switch to quadratic models when they improve
    // the fit and enough points exist.
    if (opts.allowQuadratic && profile.datasetsGB.size() >= 3) {
        const auto &linear =
            predictor.models.at(predictor.referenceCores);
        if (linear.r2 < kLinearR2Threshold) {
            std::map<int, solver::PolynomialModel> candidates;
            bool better = true;
            for (int x : profile.coreCounts) {
                std::vector<double> sizes, times;
                for (double gb : profile.datasetsGB) {
                    sizes.push_back(gb);
                    times.push_back(profile.secondsAt(gb, x));
                }
                auto quad = solver::fitPolynomial(sizes, times, 2);
                if (quad.r2 <= predictor.models.at(x).r2) {
                    better = false;
                    break;
                }
                candidates.emplace(x, std::move(quad));
            }
            if (better) {
                predictor.polyModels = std::move(candidates);
                predictor.degree = 2;
            }
        }
    }
    return predictor;
}

const solver::LinearModel &
PerformancePredictor::modelForCores(int cores) const
{
    const auto it = models.find(cores);
    if (it == models.end())
        fatal("no linear model fitted for ", cores, " cores");
    return it->second;
}

std::vector<int>
PerformancePredictor::modeledCoreCounts() const
{
    std::vector<int> counts;
    counts.reserve(models.size());
    for (const auto &[cores, model] : models)
        counts.push_back(cores);
    return counts;
}

double
PerformancePredictor::predictSeconds(double datasetGB, int cores) const
{
    if (!(datasetGB > 0.0 && std::isfinite(datasetGB)))
        fatal("dataset size must be positive and finite, got ",
              datasetGB);
    if (cores < 1)
        fatal("core count must be >= 1, got ", cores);

    const double t_ref =
        degree == 2 ? polyModels.at(referenceCores).predict(datasetGB)
                    : modelForCores(referenceCores).predict(datasetGB);
    const double s_ref = core::amdahlSpeedup(
        fraction, static_cast<double>(referenceCores));
    const double s_target =
        core::amdahlSpeedup(fraction, static_cast<double>(cores));
    ensure(s_target > 0.0, "zero predicted speedup");
    return std::max(0.0, t_ref) * s_ref / s_target;
}

PredictionErrorReport
evaluatePredictor(const PerformancePredictor &predictor,
                  const sim::TaskSimulator &simulator,
                  const sim::WorkloadSpec &workload, double datasetGB,
                  const std::vector<int> &core_counts)
{
    if (core_counts.empty())
        fatal("no core counts to evaluate");

    PredictionErrorReport report;
    report.coreCounts = core_counts;
    for (int x : core_counts) {
        const double predicted = predictor.predictSeconds(datasetGB, x);
        const double measured =
            simulator.executionSeconds(workload, datasetGB, x);
        report.predictedSeconds.push_back(predicted);
        report.measuredSeconds.push_back(measured);
        report.errorPercent.push_back(
            100.0 * std::abs(predicted - measured) / measured);
    }
    report.errorSummary = boxplot(report.errorPercent);
    report.meanErrorPercent = mean(report.errorPercent);
    return report;
}

} // namespace amdahl::profiling
