/**
 * @file
 * Event-driven task-level execution simulator.
 *
 * Replaces the paper's physical Xeon testbed. Each workload execution is
 * simulated stage by stage: serial driver work runs on one core; parallel
 * stages dispatch tasks through a serialized driver onto a pool of worker
 * cores (earliest-free-core list scheduling), pay communication costs that
 * grow with the worker count, and slow down when aggregate DRAM bandwidth
 * demand exceeds the server's ceiling. Task durations carry deterministic
 * skew to model stragglers.
 *
 * The simulator's output — execution time as a function of (cores,
 * dataset) — is the only thing the rest of the reproduction consumes, in
 * exactly the role of the paper's `perf stat` / Spark event-log profiles.
 */

#ifndef AMDAHL_SIM_TASK_SIM_HH
#define AMDAHL_SIM_TASK_SIM_HH

#include <string>
#include <vector>

#include "sim/server.hh"
#include "sim/workload.hh"

namespace amdahl::sim {

/** Timing breakdown of one simulated stage. */
struct StageResult
{
    std::string label;
    double startSeconds = 0.0;   //!< Stage start (since job start).
    double endSeconds = 0.0;     //!< Stage end (since job start).
    int tasks = 0;               //!< Parallel tasks executed.
    int workers = 0;             //!< Cores that ran tasks.
    int failures = 0;            //!< Tasks that failed and re-ran.
    double serialSeconds = 0.0;  //!< Driver-side serial time.
    double commSeconds = 0.0;    //!< Communication/synchronization time.
    double bandwidthSlowdown = 1.0; //!< >= 1; DRAM throttling factor.

    /** @return Stage duration. */
    double duration() const { return endSeconds - startSeconds; }
};

/** Full result of one simulated execution. */
struct ExecutionResult
{
    double totalSeconds = 0.0;
    int cores = 0;
    double datasetGB = 0.0;
    std::vector<StageResult> stages;
};

/**
 * The simulator. Stateless per execution; cheap to copy.
 */
class TaskSimulator
{
  public:
    /** @param server Hardware model all executions run on. */
    explicit TaskSimulator(ServerConfig server = {});

    /** @return The hardware model. */
    const ServerConfig &server() const { return config; }

    /**
     * Set the colocation-interference factor.
     *
     * Contention for shared cache and memory grows with the number of
     * active workers, so task durations are scaled by
     * 1 + (factor - 1) * (workers - 1) / (server cores - 1): a single
     * worker is unaffected, a machine-filling stage pays the full
     * factor. Growth with parallelism is what makes contention lower
     * the *effective* parallel fraction (Section VI-E).
     *
     * @param factor >= 1; 1 means no interference.
     */
    void setInterferenceSlowdown(double factor);

    /**
     * Inject task failures: each parallel task independently fails
     * with this probability and is re-executed once (detect-on-finish
     * plus retry, the common datacenter discipline). Failures are
     * deterministic per (workload, stage, task), drawn from a stream
     * separate from duration jitter so a zero rate reproduces
     * bit-identical schedules.
     *
     * @param probability In [0, 1).
     */
    void setTaskFailureRate(double probability);

    /**
     * Simulate one execution.
     *
     * @param workload  The benchmark to run.
     * @param datasetGB Input size (may differ from the reference size;
     *                  execution time scales per the workload's model).
     * @param cores     Processor cores allocated (1..server cores).
     * @return Timing breakdown.
     */
    ExecutionResult execute(const WorkloadSpec &workload, double datasetGB,
                            int cores) const;

    /** Convenience: total seconds of execute(). */
    double executionSeconds(const WorkloadSpec &workload, double datasetGB,
                            int cores) const;

    /**
     * Measured speedup s(x) = T(1) / T(x) on the given dataset.
     */
    double speedup(const WorkloadSpec &workload, double datasetGB,
                   int cores) const;

  private:
    ServerConfig config;
    double interference = 1.0;
    double failureRate = 0.0;
};

} // namespace amdahl::sim

#endif // AMDAHL_SIM_TASK_SIM_HH
