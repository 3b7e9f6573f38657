/**
 * @file
 * The benchmark's workloads and the metric names every run emits.
 *
 * A "request" is the unit a user waits for: one market file turned
 * into a certified, rounded allocation (clear-1e5), or one online epoch
 * including its durable commit (online-durable, online-sharded).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "report.hh"

namespace perfbench {

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs that finish in seconds (the benchmark's own tests). */
    bool smoke = false;
    /** Work directory for market files and state directories. */
    std::string workdir;
    /** Where the traced run writes its spans; empty = nowhere. */
    std::string spansPath;
};

/** (name, unit) of every metric a run without tracing emits. */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

/** (name, unit) of every metric a traced run emits. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** @return Workload names, in documentation order. */
const std::vector<std::string> &workloadNames();

/** clear-1e5: parse -> solve -> certificate -> rounding, repeated. */
void runClear(const RunOptions &opts, Report &report);

/** online-durable and online-sharded. */
void runOnline(const RunOptions &opts, Report &report);

/** @return A 64-bit seed for one purpose of one workload seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t purpose);

/**
 * A run's request budget: as many requests (or whole online runs) as
 * take --seconds on the machine the benchmark was sized on, and at
 * least a minimum. A count rather than a deadline keeps every run of a
 * workload the same shape, so its figures do not depend on how many
 * requests happened to fit; only on a much slower machine, past
 * 1.5 x --seconds, does a run stop early (never below the minimum).
 */
class Budget
{
  public:
    /** @param nominal Seconds one request takes on that machine. */
    Budget(double seconds, double nominal, int least);

    /** @return true while request number @p done should still run. */
    bool more(int done) const;

  private:
    double seconds_;
    double start_;
    int planned_;
    int least_;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
