#include "workload.hh"

#include "common/logging.hh"

namespace amdahl::sim {

std::string
toString(Suite suite)
{
    return suite == Suite::Spark ? "Spark" : "PARSEC";
}

double
WorkloadSpec::structuralParallelFraction() const
{
    double serial = 0.0;
    double parallel = 0.0;
    for (const auto &stage : stages) {
        serial += stage.serialSeconds;
        parallel += stage.parallelSeconds;
    }
    const double total = serial + parallel;
    return total > 0.0 ? parallel / total : 0.0;
}

void
WorkloadSpec::validate() const
{
    if (name.empty())
        fatal("workload must have a name");
    if (stages.empty())
        fatal("workload ", name, " has no stages");
    if (datasetGB <= 0.0)
        fatal("workload ", name, " has non-positive dataset size");
    if (blockSizeGB <= 0.0)
        fatal("workload ", name, " has non-positive block size");
    if (dispatchSecondsPerTask < 0.0 || commSecondsPerWorker < 0.0 ||
        memBandwidthPerCoreGBps < 0.0 || memBandwidthSaturationGB < 0.0) {
        fatal("workload ", name, " has negative overhead parameters");
    }
    if (timeExponent <= 0.0)
        fatal("workload ", name, " has non-positive time exponent");
    if (commDatasetExponent <= 0.0)
        fatal("workload ", name,
              " has non-positive communication exponent");
    for (const auto &stage : stages) {
        if (stage.serialSeconds < 0.0 || stage.parallelSeconds < 0.0)
            fatal("workload ", name, " stage ", stage.label,
                  " has negative time");
        if (stage.serialSeconds == 0.0 && stage.parallelSeconds == 0.0)
            fatal("workload ", name, " stage ", stage.label, " is empty");
        if (stage.scaling == TaskScaling::FixedTasks &&
            stage.fixedTasks <= 0) {
            fatal("workload ", name, " stage ", stage.label,
                  " has non-positive task count");
        }
        if (stage.taskSkew < 0.0 || stage.taskSkew >= 1.0)
            fatal("workload ", name, " stage ", stage.label,
                  " has task skew outside [0, 1)");
    }
}

} // namespace amdahl::sim
