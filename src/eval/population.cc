#include "population.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace amdahl::eval {

std::size_t
Population::jobCount() const
{
    std::size_t total = 0;
    for (const auto &jobs : userJobs)
        total += jobs.size();
    return total;
}

int
Population::coresOf(std::size_t j) const
{
    if (j >= serverCount)
        fatal("server index ", j, " out of range");
    return coresPerServer;
}

int
Population::entitlementClass(std::size_t i) const
{
    if (i >= budgets.size())
        fatal("user index ", i, " out of range");
    return static_cast<int>(std::llround(budgets[i]));
}

Population
generatePopulation(Rng &rng, const PopulationOptions &opts)
{
    if (opts.users < 1)
        fatal("population needs at least one user");
    if (opts.serverMultiplier <= 0.0)
        fatal("server multiplier must be positive");
    if (opts.density < 1)
        fatal("density must be at least 1");
    if (opts.coresPerServer < 1)
        fatal("servers need at least one core");
    if (opts.workloadCount == 0)
        fatal("need at least one workload to draw from");

    Population pop;
    pop.coresPerServer = opts.coresPerServer;
    pop.serverCount = static_cast<std::size_t>(
        std::ceil(opts.serverMultiplier * opts.users));
    if (pop.serverCount == 0)
        pop.serverCount = 1;

    pop.budgets.resize(opts.users);
    for (auto &budget : pop.budgets) {
        budget = static_cast<double>(
            rng.uniformInt(kMinBudgetClass, kMaxBudgetClass));
    }
    pop.userJobs.resize(opts.users);

    // Per server: draw the job count from {ceil(d/2), ..., d}, then a
    // benchmark and a user for each job.
    std::vector<int> server_jobs(pop.serverCount, 0);
    const int lo = std::max(1, (opts.density + 1) / 2);
    for (std::size_t j = 0; j < pop.serverCount; ++j) {
        const int count =
            static_cast<int>(rng.uniformInt(lo, opts.density));
        server_jobs[j] = count;
        for (int c = 0; c < count; ++c) {
            PopulationJob job;
            job.server = j;
            job.workloadIndex = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(opts.workloadCount) - 1));
            const auto owner = static_cast<std::size_t>(
                rng.uniformInt(0, opts.users - 1));
            pop.userJobs[owner].push_back(job);
        }
    }

    // Fix-up: every user runs at least one job. Prefer servers that are
    // still below their density cap.
    for (std::size_t i = 0; i < pop.userJobs.size(); ++i) {
        if (!pop.userJobs[i].empty())
            continue;
        std::vector<std::size_t> open;
        for (std::size_t j = 0; j < pop.serverCount; ++j) {
            if (server_jobs[j] < opts.density)
                open.push_back(j);
        }
        std::size_t target;
        if (!open.empty()) {
            target = open[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(open.size()) - 1))];
        } else {
            target = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(pop.serverCount) - 1));
        }
        PopulationJob job;
        job.server = target;
        job.workloadIndex = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(opts.workloadCount) - 1));
        pop.userJobs[i].push_back(job);
        ++server_jobs[target];
    }
    return pop;
}

std::vector<double>
paperServerMultipliers()
{
    return {0.25, 0.5, 1.0, 2.0, 4.0};
}

std::vector<int>
paperDensityLadder()
{
    return {4, 8, 12, 16, 20, 24};
}

} // namespace amdahl::eval
