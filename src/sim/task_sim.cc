#include "task_sim.hh"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/logging.hh"
#include "common/random.hh"

namespace amdahl::sim {

TaskSimulator::TaskSimulator(ServerConfig server) : config(std::move(server))
{
    if (config.cores() <= 0)
        fatal("simulator needs a server with cores");
}

void
TaskSimulator::setInterferenceSlowdown(double factor)
{
    if (!(factor >= 1.0 && std::isfinite(factor)))
        fatal("interference slowdown must be >= 1, got ", factor);
    interference = factor;
}

void
TaskSimulator::setTaskFailureRate(double probability)
{
    if (!(probability >= 0.0 && probability < 1.0))
        fatal("task failure rate must be in [0, 1), got ", probability);
    failureRate = probability;
}

ExecutionResult
TaskSimulator::execute(const WorkloadSpec &workload, double datasetGB,
                       int cores) const
{
    workload.validate();
    if (!(datasetGB > 0.0 && std::isfinite(datasetGB)))
        fatal("dataset size must be positive and finite, got ",
              datasetGB);
    if (cores < 1)
        fatal("core count must be >= 1, got ", cores);
    if (cores > config.cores()) {
        fatal("core count ", cores, " exceeds server capacity ",
              config.cores());
    }

    const double dataset_scale =
        std::pow(datasetGB / workload.datasetGB, workload.timeExponent);

    ExecutionResult result;
    result.cores = cores;
    result.datasetGB = datasetGB;

    double now = 0.0;
    for (std::size_t si = 0; si < workload.stages.size(); ++si) {
        const StageSpec &spec = workload.stages[si];
        StageResult stage;
        stage.label = spec.label;
        stage.startSeconds = now;

        // Serial driver-side portion.
        stage.serialSeconds = spec.serialSeconds * dataset_scale;
        now += stage.serialSeconds;

        if (spec.parallelSeconds > 0.0) {
            // Task population and mean duration.
            int tasks;
            if (spec.scaling == TaskScaling::BlocksOfDataset) {
                tasks = std::max(
                    1, static_cast<int>(
                           std::ceil(datasetGB / workload.blockSizeGB)));
            } else {
                tasks = spec.fixedTasks;
            }
            const double total_work = spec.parallelSeconds * dataset_scale;
            const double mean_task = total_work / tasks;

            const int workers = std::min(cores, tasks);
            stage.tasks = tasks;
            stage.workers = workers;

            // DRAM bandwidth throttling from aggregate demand. Demand
            // ramps with dataset size up to the saturation point: small
            // inputs live in the last-level cache and barely touch
            // DRAM, and the spill is sharp (quadratic ramp), which is
            // why sampled datasets miss the ceiling entirely.
            double per_core_demand = workload.memBandwidthPerCoreGBps;
            if (workload.memBandwidthSaturationGB > 0.0) {
                const double ratio = std::min(
                    1.0, datasetGB / workload.memBandwidthSaturationGB);
                per_core_demand *= ratio * ratio;
            }
            const double demand = workers * per_core_demand;
            stage.bandwidthSlowdown =
                std::max(1.0, demand / config.memoryBandwidthGBps);

            // Interference grows with worker count: one worker feels no
            // co-runner pressure; a machine-filling stage pays the full
            // configured factor.
            double interference_slowdown = 1.0;
            if (interference > 1.0 && config.cores() > 1) {
                interference_slowdown =
                    1.0 + (interference - 1.0) * (workers - 1) /
                              (config.cores() - 1);
            }

            // Deterministic straggler skew per (workload, stage).
            SplitMix64 jitter(workload.seed * 0x9e37UL + si * 0x85ebUL +
                              0xc2b2ae3d27d4eb4fULL);
            // Separate stream for failure injection so a zero rate
            // reproduces bit-identical schedules.
            SplitMix64 faults(workload.seed * 0xfa17UL + si * 0x7a5cUL +
                              0x9e3779b97f4a7c15ULL);

            // Earliest-free-core list scheduling with a serialized
            // dispatcher: task k cannot start before its dispatch
            // completes nor before a worker frees up.
            std::priority_queue<double, std::vector<double>,
                                std::greater<>> free_at(
                std::greater<>(), std::vector<double>(workers, now));
            double dispatch_clock = now;
            double stage_end = now;
            for (int k = 0; k < tasks; ++k) {
                const double u =
                    static_cast<double>(jitter.next() >> 11) * 0x1.0p-53;
                double duration = mean_task *
                                  (1.0 + spec.taskSkew * (u - 0.5)) *
                                  stage.bandwidthSlowdown *
                                  interference_slowdown;
                if (failureRate > 0.0) {
                    const double f =
                        static_cast<double>(faults.next() >> 11) *
                        0x1.0p-53;
                    if (f < failureRate) {
                        // Failure detected at completion; the retry
                        // re-runs the task on the same core.
                        duration *= 2.0;
                        ++stage.failures;
                    }
                }
                dispatch_clock += workload.dispatchSecondsPerTask;
                const double core_free = free_at.top();
                free_at.pop();
                const double start = std::max(dispatch_clock, core_free);
                const double finish = start + duration;
                free_at.push(finish);
                stage_end = std::max(stage_end, finish);
            }
            now = stage_end;

            // Communication/synchronization growing with worker count;
            // skewed datasets (graphs) scale it super-linearly in the
            // input fraction.
            const double comm_scale =
                std::pow(datasetGB / workload.datasetGB,
                         workload.commDatasetExponent);
            stage.commSeconds = workload.commSecondsPerWorker *
                                (workers - 1) * comm_scale;
            now += stage.commSeconds;
        }

        stage.endSeconds = now;
        result.stages.push_back(std::move(stage));
    }

    result.totalSeconds = now;
    ensure(result.totalSeconds >= 0.0, "negative simulated time");
    return result;
}

double
TaskSimulator::executionSeconds(const WorkloadSpec &workload,
                                double datasetGB, int cores) const
{
    return execute(workload, datasetGB, cores).totalSeconds;
}

double
TaskSimulator::speedup(const WorkloadSpec &workload, double datasetGB,
                       int cores) const
{
    const double t1 = executionSeconds(workload, datasetGB, 1);
    const double tx = executionSeconds(workload, datasetGB, cores);
    ensure(tx > 0.0, "zero execution time for ", workload.name);
    return t1 / tx;
}

} // namespace amdahl::sim
