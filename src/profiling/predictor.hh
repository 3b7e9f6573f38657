/**
 * @file
 * The two-dimensional performance predictor (Section IV-B, Figure 5).
 *
 * Combines the two flows of the paper's methodology figure:
 *
 *  - horizontal: Karp-Flatt estimates the parallel fraction from
 *    speedups at sampled core counts;
 *  - vertical: linear models estimate execution time from dataset size
 *    at each profiled core count.
 *
 * Prediction scales a time estimate twice — by the linear model for the
 * target dataset size and by Amdahl's Law for the target core count.
 */

#ifndef AMDAHL_PROFILING_PREDICTOR_HH
#define AMDAHL_PROFILING_PREDICTOR_HH

#include <map>
#include <vector>

#include "common/stats.hh"
#include "profiling/profiler.hh"
#include "solver/linear_model.hh"

namespace amdahl::profiling {

/** Fitting options for PerformancePredictor. */
struct PredictorOptions
{
    /**
     * Allow quadratic dataset-scaling models. The paper's methodology
     * uses linear models but notes some workloads (QR decomposition)
     * scale quadratically; with this enabled, a quadratic model
     * replaces the linear one whenever the linear fit's R^2 falls
     * below 0.995 and the quadratic fit improves on it. Disabled by
     * default to match the paper's evaluated pipeline.
     */
    bool allowQuadratic = false;
};

/**
 * Execution-time and parallelizability predictor fitted from sampled
 * profiles.
 */
class PerformancePredictor
{
  public:
    /**
     * Fit a predictor from a grid profile over sampled datasets.
     *
     * @param profile Grid with at least two dataset sizes (for the
     *                linear models) and at least one core count > 1
     *                (for Karp-Flatt).
     * @param opts    Model-selection options.
     */
    static PerformancePredictor fit(const WorkloadProfile &profile,
                                    const PredictorOptions &opts = {});

    /** @return The estimated parallel fraction (Amdahl utility's f). */
    double parallelFraction() const { return fraction; }

    /** @return The linear time-vs-dataset model at a profiled count. */
    const solver::LinearModel &modelForCores(int cores) const;

    /** @return The profiled core counts with fitted models. */
    std::vector<int> modeledCoreCounts() const;

    /**
     * @return Degree of the selected dataset-scaling model: 1 when the
     * linear models were kept, 2 when quadratic models were selected
     * (only possible with PredictorOptions::allowQuadratic).
     */
    std::size_t scalingDegree() const { return degree; }

    /**
     * Predict execution time for any (dataset, cores) point.
     *
     * Uses the linear model at the largest profiled core count — the
     * paper observes those profiles are fastest to collect and most
     * accurate — then rescales with Amdahl's Law:
     *     T(d, x) = T_ref(d) * s(x_ref) / s(x).
     *
     * @param datasetGB Target dataset size (> 0).
     * @param cores     Target core allocation (>= 1).
     */
    double predictSeconds(double datasetGB, int cores) const;

  private:
    double fraction = 0.5;
    int referenceCores = 1;
    std::size_t degree = 1;
    std::map<int, solver::LinearModel> models;
    std::map<int, solver::PolynomialModel> polyModels;
};

/** Prediction accuracy against full-dataset measurements (Figs 7-8). */
struct PredictionErrorReport
{
    std::vector<int> coreCounts;
    std::vector<double> predictedSeconds;
    std::vector<double> measuredSeconds;
    std::vector<double> errorPercent; //!< 100 |pred - meas| / meas.
    BoxplotSummary errorSummary;      //!< Figure 8's boxplot.
    double meanErrorPercent = 0.0;
};

/**
 * Evaluate a predictor against fresh full-dataset measurements.
 *
 * @param predictor   Fitted on sampled datasets.
 * @param simulator   Ground-truth executions.
 * @param workload    The benchmark.
 * @param datasetGB   The (full) dataset to evaluate on.
 * @param core_counts Allocations to test (each > 0).
 */
PredictionErrorReport
evaluatePredictor(const PerformancePredictor &predictor,
                  const sim::TaskSimulator &simulator,
                  const sim::WorkloadSpec &workload, double datasetGB,
                  const std::vector<int> &core_counts);

} // namespace amdahl::profiling

#endif // AMDAHL_PROFILING_PREDICTOR_HH
