#include "best_response.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/logging.hh"
#include "core/rounding.hh"
#include "solver/interior_point.hh"

namespace amdahl::alloc {

namespace {

/** Stop when no bid moves by more than this share of its budget. */
constexpr double kBidTolerance = 1e-5;

/** Cap on best-response rounds. */
constexpr int kMaxRounds = 500;

/**
 * The price-anticipating objective of one user: for job k on a server
 * with capacity C and opposing bids q, utility w * s(x(b)) with
 * x(b) = C b / (q + b).
 */
class AnticipatingObjective : public solver::SeparableConcave
{
  public:
    AnticipatingObjective(const core::MarketUser &user,
                          const std::vector<double> &capacities,
                          std::vector<double> opposing)
        : user_(user), caps(capacities), q(std::move(opposing))
    {}

    std::size_t size() const override { return user_.jobs.size(); }

    double
    value(std::size_t k, double b) const override
    {
        const auto &job = user_.jobs[k];
        const double x = cores(k, b);
        return job.weight * speedup(job.parallelFraction, x);
    }

    double
    gradient(std::size_t k, double b) const override
    {
        const auto &job = user_.jobs[k];
        const double f = job.parallelFraction;
        const double x = cores(k, b);
        const double dxdb = coresSlope(k, b);
        const double denom = f + (1.0 - f) * x;
        const double sp = f / (denom * denom);
        return job.weight * sp * dxdb;
    }

    double
    hessian(std::size_t k, double b) const override
    {
        const auto &job = user_.jobs[k];
        const double f = job.parallelFraction;
        const double cap = caps[user_.jobs[k].server];
        const double qq = q[k];
        const double x = cores(k, b);
        const double denom = f + (1.0 - f) * x;
        const double sp = f / (denom * denom);
        const double spp =
            -2.0 * f * (1.0 - f) / (denom * denom * denom);
        const double dxdb = coresSlope(k, b);
        const double d2xdb2 =
            -2.0 * cap * qq / std::pow(qq + b, 3.0);
        return job.weight * (spp * dxdb * dxdb + sp * d2xdb2);
    }

  private:
    double
    cores(std::size_t k, double b) const
    {
        const double cap = caps[user_.jobs[k].server];
        return cap * b / (q[k] + b);
    }

    double
    coresSlope(std::size_t k, double b) const
    {
        const double cap = caps[user_.jobs[k].server];
        const double qb = q[k] + b;
        return cap * q[k] / (qb * qb);
    }

    static double
    speedup(double f, double x)
    {
        return x / (f + (1.0 - f) * x);
    }

    const core::MarketUser &user_;
    const std::vector<double> &caps;
    std::vector<double> q;
};

} // namespace

std::vector<double>
BestResponsePolicy::bestResponseBids(
    const core::MarketUser &user, const std::vector<double> &capacities,
    const std::vector<double> &other_bids)
{
    if (other_bids.size() != user.jobs.size())
        fatal("opposing-bid vector has wrong job count");
    AnticipatingObjective objective(user, capacities,
                                    std::vector<double>(other_bids));
    return solver::maximizeOnSimplex(objective, user.budget);
}

AllocationResult
BestResponsePolicy::allocate(const core::FisherMarket &market) const
{
    market.validate();
    const std::size_t n = market.userCount();
    const std::size_t m = market.serverCount();

    AllocationResult result;
    result.policyName = name();
    result.outcome.bids.resize(n);

    // Start from an even split of each budget.
    std::vector<double> server_bids(m, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &user = market.user(i);
        result.outcome.bids[i].assign(
            user.jobs.size(),
            user.budget / static_cast<double>(user.jobs.size()));
        for (std::size_t k = 0; k < user.jobs.size(); ++k)
            server_bids[user.jobs[k].server] +=
                result.outcome.bids[i][k];
    }

    bool converged = false;
    int rounds = 0;
    for (; rounds < kMaxRounds && !converged; ++rounds) {
        double max_delta = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto &user = market.user(i);
            std::vector<double> opposing(user.jobs.size());
            for (std::size_t k = 0; k < user.jobs.size(); ++k) {
                opposing[k] = server_bids[user.jobs[k].server] -
                              result.outcome.bids[i][k];
                opposing[k] = std::max(0.0, opposing[k]);
            }
            const auto response =
                bestResponseBids(user, market.capacities(), opposing);
            for (std::size_t k = 0; k < user.jobs.size(); ++k) {
                const double old_bid = result.outcome.bids[i][k];
                const double delta = std::abs(response[k] - old_bid) /
                                     std::max(user.budget, 1e-300);
                max_delta = std::max(max_delta, delta);
                server_bids[user.jobs[k].server] +=
                    response[k] - old_bid;
                result.outcome.bids[i][k] = response[k];
            }
        }
        converged = max_delta < kBidTolerance;
    }
    result.outcome.iterations = rounds;
    result.outcome.converged = converged;

    // Nash prices and allocations. Recompute per-server totals from
    // the final bids: the incrementally maintained sums drift over
    // many rounds, and allocations must be exactly consistent with
    // prices for the servers to clear.
    std::fill(server_bids.begin(), server_bids.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &jobs = market.user(i).jobs;
        for (std::size_t k = 0; k < jobs.size(); ++k)
            server_bids[jobs[k].server] += result.outcome.bids[i][k];
    }
    result.outcome.prices.resize(m);
    for (std::size_t j = 0; j < m; ++j)
        result.outcome.prices[j] = server_bids[j] / market.capacity(j);
    result.outcome.allocation.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &jobs = market.user(i).jobs;
        result.outcome.allocation[i].resize(jobs.size());
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            const double p = result.outcome.prices[jobs[k].server];
            ensure(p > 0.0, "zero Nash price on server ",
                   jobs[k].server);
            result.outcome.allocation[i][k] =
                result.outcome.bids[i][k] / p;
        }
    }
    result.cores = core::roundOutcome(market, result.outcome);
    if constexpr (checkedBuild)
        auditAllocation(market, result);
    return result;
}

} // namespace amdahl::alloc
