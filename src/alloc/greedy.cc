#include "greedy.hh"

#include <cmath>
#include <queue>

#include "common/check.hh"
#include "common/logging.hh"
#include "core/amdahl.hh"

namespace amdahl::alloc {

namespace {

/** One heap entry: the gain from giving this job its next core. */
struct Candidate
{
    double gain;
    std::size_t user;
    std::size_t job;
    int cores; // Cores already granted to the job.

    bool
    operator<(const Candidate &other) const
    {
        return gain < other.gain; // max-heap by gain
    }
};

} // namespace

AllocationResult
MarginalGreedyBase::allocate(const core::FisherMarket &market) const
{
    market.validate();
    const std::size_t n = market.userCount();

    AllocationResult result;
    result.policyName = name();
    result.outcome.allocation.resize(n);
    result.cores.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        result.outcome.allocation[i].assign(market.user(i).jobs.size(),
                                            0.0);
        result.cores[i].assign(market.user(i).jobs.size(), 0);
    }

    // Per-user weight normalizers W_i = sum_j w_ij (Eq. 4's denominator).
    std::vector<double> weight_sum(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (const auto &job : market.user(i).jobs)
            weight_sum[i] += job.weight;
    }

    auto marginal = [&](std::size_t i, std::size_t k, int x) {
        const auto &job = market.user(i).jobs[k];
        const double delta =
            core::amdahlSpeedup(job.parallelFraction, x + 1) -
            core::amdahlSpeedup(job.parallelFraction, x);
        return userWeight(market, i) * job.weight * delta /
               weight_sum[i];
    };

    // Each server is independent: assign its cores one at a time to the
    // job with the largest marginal gain.
    const core::ServerJobIndex index(market);
    for (std::size_t j = 0; j < market.serverCount(); ++j) {
        const auto located = index.jobsOn(j);
        if (located.empty())
            continue;

        std::priority_queue<Candidate> heap;
        for (const auto &[i, k] : located)
            heap.push({marginal(i, k, 0), i, k, 0});

        const int capacity =
            static_cast<int>(std::llround(market.capacity(j)));
        for (int c = 0; c < capacity && !heap.empty(); ++c) {
            Candidate top = heap.top();
            heap.pop();
            ++result.cores[top.user][top.job];
            top.cores += 1;
            top.gain = marginal(top.user, top.job, top.cores);
            heap.push(top);
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < result.cores[i].size(); ++k) {
            result.outcome.allocation[i][k] =
                static_cast<double>(result.cores[i][k]);
        }
    }
    if constexpr (checkedBuild)
        auditAllocation(market, result);
    return result;
}

} // namespace amdahl::alloc
