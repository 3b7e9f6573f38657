/**
 * @file
 * Workload specifications for the execution simulator.
 *
 * A workload is a sequence of stages. Serial stages model driver-side
 * work (job setup, final aggregation); parallel stages model Spark task
 * waves or PARSEC thread pools. Overheads — serialized task dispatch,
 * communication that grows with the worker count, and memory-bandwidth
 * demand — are specified per workload, so deviations from Amdahl's Law
 * *emerge* from the simulation instead of being painted onto speedup
 * curves. This is what lets the Karp-Flatt pipeline (Section IV) observe
 * the same pathologies the paper reports: graph analytics whose estimated
 * F falls with core count, tiny-task-count jobs whose estimates are noisy,
 * and bandwidth-bound kernels whose sampled profiles over-estimate F.
 */

#ifndef AMDAHL_SIM_WORKLOAD_HH
#define AMDAHL_SIM_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

namespace amdahl::sim {

/** Benchmark suite provenance (Table I). */
enum class Suite { Spark, Parsec };

/** @return Human-readable suite name. */
std::string toString(Suite suite);

/** How a parallel stage's task population responds to dataset size. */
enum class TaskScaling
{
    /**
     * Spark-style: the dataset is split into fixed-size blocks, one task
     * per block; task durations are independent of dataset size.
     */
    BlocksOfDataset,
    /**
     * PARSEC-style: a fixed task population whose per-task duration
     * scales with dataset size.
     */
    FixedTasks,
};

/** One stage of a workload. */
struct StageSpec
{
    /** Descriptive label ("read", "iterate", "reduce", ...). */
    std::string label;

    /**
     * Serial driver time for this stage, seconds at the reference
     * dataset. Scales with dataset size via WorkloadSpec::timeExponent.
     * A pure serial stage has parallelSeconds == 0.
     */
    double serialSeconds = 0.0;

    /**
     * Total parallel work in this stage, seconds at the reference
     * dataset (i.e., sum of task durations on one core).
     */
    double parallelSeconds = 0.0;

    /** Task-count scaling discipline. */
    TaskScaling scaling = TaskScaling::BlocksOfDataset;

    /**
     * For FixedTasks: the task population.
     * Ignored for BlocksOfDataset (task count = blocks of the dataset).
     */
    int fixedTasks = 64;

    /**
     * Deterministic task-duration skew in [0, 1): individual task
     * durations vary by up to +/- skew/2 around the mean (mean
     * preserved). Models stragglers.
     */
    double taskSkew = 0.1;
};

/** Full description of one benchmark from Table I. */
struct WorkloadSpec
{
    int id = 0;                //!< Table I row number.
    std::string name;          //!< e.g. "correlation", "dedup".
    std::string application;   //!< e.g. "Statistics", "Storage".
    Suite suite = Suite::Spark;
    std::string dataset;       //!< e.g. "webspam2011", "native".
    double datasetGB = 1.0;    //!< Full-dataset size (reference input).

    std::vector<StageSpec> stages;

    /**
     * Spark block size in GB; the run-time engine creates one task per
     * block (paper: 32 MB default, so a 24 GB dataset yields ~750 tasks).
     */
    double blockSizeGB = 0.032;

    /**
     * Serialized dispatch cost per task, seconds. The driver issues
     * tasks one at a time; with many workers and tiny tasks this becomes
     * the bottleneck (the paper's kmeans pathology).
     */
    double dispatchSecondsPerTask = 0.0;

    /**
     * Per-stage communication cost that grows with the number of
     * participating workers: comm = commSecondsPerWorker * (workers - 1)
     * at the reference dataset, scaled with dataset size. Models shuffle
     * and synchronization traffic (the paper's graph-analytics and dedup
     * pathologies).
     */
    double commSecondsPerWorker = 0.0;

    /**
     * DRAM bandwidth demand per active core, GB/s. When the aggregate
     * demand exceeds the server's bandwidth, parallel work slows
     * proportionally (the paper's canneal pathology).
     */
    double memBandwidthPerCoreGBps = 0.0;

    /**
     * Dataset size (GB) at which the bandwidth demand reaches its full
     * value; smaller inputs fit in cache and demand proportionally less.
     * This is why sampled (small) datasets over-estimate canneal's
     * parallelism in Figure 6. Zero disables the effect (demand is
     * always full).
     */
    double memBandwidthSaturationGB = 0.0;

    /**
     * Exponent of execution-time scaling with dataset size: 1 for the
     * linear workloads of Figure 4, 2 for quadratic ones (QR
     * decomposition).
     */
    double timeExponent = 1.0;

    /**
     * Exponent of communication-cost scaling with dataset size.
     * Skewed, irregular datasets (sparse graphs) grow communication
     * super-linearly in the sampled fraction, which is why the paper
     * notes uniform sampling falls short for them: small samples
     * under-represent communication and over-estimate F.
     */
    double commDatasetExponent = 1.0;

    /** Seed component for deterministic task-duration jitter. */
    std::uint64_t seed = 0;

    /**
     * @return The structural parallel fraction implied by the stage
     * list: parallel work / total work at the reference dataset. The
     * *measured* (Karp-Flatt) fraction is below this whenever overheads
     * bite.
     */
    double structuralParallelFraction() const;

    /** Validate invariants; fatal() on nonsense specs. */
    void validate() const;
};

} // namespace amdahl::sim

#endif // AMDAHL_SIM_WORKLOAD_HH
