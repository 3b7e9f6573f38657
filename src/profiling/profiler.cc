#include "profiler.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace amdahl::profiling {

double
WorkloadProfile::secondsAt(double datasetGB, int cores) const
{
    for (const auto &pt : points) {
        if (pt.cores == cores &&
            std::abs(pt.datasetGB - datasetGB) < 1e-9 * datasetGB) {
            return pt.seconds;
        }
    }
    fatal("no profile point for ", workloadName, " at ", datasetGB,
          " GB on ", cores, " cores");
}

std::vector<double>
WorkloadProfile::speedups(double datasetGB) const
{
    const double t1 = secondsAt(datasetGB, 1);
    std::vector<double> result;
    for (int x : coreCounts) {
        if (x > 1)
            result.push_back(t1 / secondsAt(datasetGB, x));
    }
    return result;
}

std::vector<int>
WorkloadProfile::multiCoreCounts() const
{
    std::vector<int> result;
    for (int x : coreCounts) {
        if (x > 1)
            result.push_back(x);
    }
    return result;
}

Profiler::Profiler(sim::TaskSimulator simulator,
                   std::vector<int> core_counts)
    : sim_(std::move(simulator)), cores_(std::move(core_counts))
{
    if (cores_.empty()) {
        // The paper's ladder (2..48 hardware threads) scaled to the
        // simulated server's allocatable cores.
        const int max_cores = sim_.server().cores();
        for (int x : {2, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48}) {
            if (x <= max_cores)
                cores_.push_back(x);
        }
        if (cores_.empty() || cores_.back() != max_cores)
            cores_.push_back(max_cores);
    }
    for (int x : cores_) {
        if (x < 1)
            fatal("core counts must be >= 1, got ", x);
        if (x > sim_.server().cores()) {
            fatal("core count ", x, " exceeds the server's ",
                  sim_.server().cores(), " cores");
        }
    }
    if (std::find(cores_.begin(), cores_.end(), 1) == cores_.end())
        cores_.insert(cores_.begin(), 1);
    std::sort(cores_.begin(), cores_.end());
    cores_.erase(std::unique(cores_.begin(), cores_.end()), cores_.end());
}

WorkloadProfile
Profiler::profile(const sim::WorkloadSpec &workload,
                  const std::vector<double> &datasetsGB) const
{
    if (datasetsGB.empty())
        fatal("no dataset sizes to profile");
    // Checked before the sort: NaN has no place in a strict weak order.
    for (double gb : datasetsGB) {
        if (!(gb > 0.0 && std::isfinite(gb)))
            fatal("dataset size must be positive and finite, got ", gb);
    }

    WorkloadProfile result;
    result.workloadName = workload.name;
    result.coreCounts = cores_;
    result.datasetsGB = datasetsGB;
    std::sort(result.datasetsGB.begin(), result.datasetsGB.end());

    for (double gb : result.datasetsGB) {
        for (int x : cores_) {
            ProfilePoint pt;
            pt.datasetGB = gb;
            pt.cores = x;
            pt.seconds = sim_.executionSeconds(workload, gb, x);
            result.points.push_back(pt);
        }
    }
    return result;
}

} // namespace amdahl::profiling
