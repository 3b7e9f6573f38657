#include "analytical.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace amdahl::sim {

AnalyticalModel::AnalyticalModel(ServerConfig server)
    : config(std::move(server))
{
    if (config.cores() <= 0)
        fatal("analytical model needs a server with cores");
}

double
AnalyticalModel::executionSeconds(const WorkloadSpec &workload,
                                  double datasetGB, int cores) const
{
    workload.validate();
    if (!(datasetGB > 0.0 && std::isfinite(datasetGB)))
        fatal("dataset size must be positive and finite, got ",
              datasetGB);
    if (cores < 1 || cores > config.cores())
        fatal("core count ", cores, " outside [1, ", config.cores(),
              "]");

    const double dataset_scale =
        std::pow(datasetGB / workload.datasetGB, workload.timeExponent);
    const double comm_scale = std::pow(datasetGB / workload.datasetGB,
                                       workload.commDatasetExponent);

    double total = 0.0;
    for (const auto &spec : workload.stages) {
        total += spec.serialSeconds * dataset_scale;
        if (spec.parallelSeconds <= 0.0)
            continue;

        int tasks;
        if (spec.scaling == TaskScaling::BlocksOfDataset) {
            tasks = std::max(
                1, static_cast<int>(
                       std::ceil(datasetGB / workload.blockSizeGB)));
        } else {
            tasks = spec.fixedTasks;
        }
        const double work = spec.parallelSeconds * dataset_scale;
        const double mean_task = work / tasks;
        const int workers = std::min(cores, tasks);

        double per_core_demand = workload.memBandwidthPerCoreGBps;
        if (workload.memBandwidthSaturationGB > 0.0) {
            const double ratio = std::min(
                1.0, datasetGB / workload.memBandwidthSaturationGB);
            per_core_demand *= ratio * ratio;
        }
        const double slowdown =
            std::max(1.0, workers * per_core_demand /
                              config.memoryBandwidthGBps);

        // Compute bound: whole waves of throttled tasks.
        const int waves =
            (tasks + workers - 1) / workers; // ceil division
        const double compute_bound = waves * mean_task * slowdown;
        // Dispatch bound: the serialized driver feeds tasks one at a
        // time; the last task starts after all dispatches and still
        // runs to completion.
        const double dispatch_bound =
            tasks * workload.dispatchSecondsPerTask +
            mean_task * slowdown;
        total += std::max(compute_bound, dispatch_bound);

        total += workload.commSecondsPerWorker * (workers - 1) *
                 comm_scale;
    }
    return total;
}

double
AnalyticalModel::speedup(const WorkloadSpec &workload, double datasetGB,
                         int cores) const
{
    const double t1 = executionSeconds(workload, datasetGB, 1);
    const double tx = executionSeconds(workload, datasetGB, cores);
    ensure(tx > 0.0, "zero analytical time for ", workload.name);
    return t1 / tx;
}

} // namespace amdahl::sim
