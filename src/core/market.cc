#include "market.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/invariants.hh"
#include "common/logging.hh"
#include "core/amdahl.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/timer.hh"
#include "solver/water_filling.hh"

namespace amdahl::core {

namespace {

/** Users per chunk of the certificate's per-user pass. */
constexpr std::size_t kCertificateUserGrain = 1024;

} // namespace

FisherMarket::FisherMarket(std::vector<double> capacities)
    : capacities_(std::move(capacities))
{
    if (capacities_.empty())
        fatal("market needs at least one server");
    for (std::size_t j = 0; j < capacities_.size(); ++j) {
        if (!std::isfinite(capacities_[j]) || capacities_[j] <= 0.0)
            fatal("server ", j, " has non-positive capacity ",
                  capacities_[j]);
    }
}

std::size_t
FisherMarket::addUser(MarketUser user)
{
    // The < / > range tests below are false for NaN, so non-finiteness
    // must be rejected explicitly — a NaN budget or fraction would
    // otherwise poison budgetSum and every price downstream.
    if (!std::isfinite(user.budget) || user.budget <= 0.0)
        fatal("user '", user.name, "' has non-positive budget ",
              user.budget);
    if (user.jobs.empty())
        fatal("user '", user.name, "' has no jobs");
    for (const auto &job : user.jobs) {
        if (job.server >= capacities_.size()) {
            fatal("user '", user.name, "' has a job on server ",
                  job.server, " but there are only ", capacities_.size(),
                  " servers");
        }
        if (!std::isfinite(job.parallelFraction) ||
            job.parallelFraction < 0.0 || job.parallelFraction > 1.0) {
            fatal("user '", user.name, "' job has parallel fraction ",
                  job.parallelFraction, " outside [0, 1]");
        }
        if (!std::isfinite(job.weight) || job.weight <= 0.0) {
            fatal("user '", user.name, "' job has non-positive weight ",
                  job.weight);
        }
    }
    budgetSum += user.budget;
    users_.push_back(std::move(user));
    return users_.size() - 1;
}

const MarketUser &
FisherMarket::user(std::size_t i) const
{
    if (i >= users_.size())
        fatal("user index ", i, " out of range (", users_.size(), ")");
    return users_[i];
}

double
FisherMarket::capacity(std::size_t j) const
{
    if (j >= capacities_.size()) {
        fatal("server index ", j, " out of range (", capacities_.size(),
              ")");
    }
    return capacities_[j];
}

double
FisherMarket::totalCores() const
{
    double total = 0.0;
    for (double c : capacities_)
        total += c;
    return total;
}

void
FisherMarket::validate() const
{
    if (users_.empty())
        fatal("market has no users");
    std::vector<bool> has_job(capacities_.size(), false);
    for (const auto &user : users_)
        for (const auto &job : user.jobs)
            has_job[job.server] = true;
    for (std::size_t j = 0; j < capacities_.size(); ++j) {
        if (!has_job[j]) {
            fatal("server ", j,
                  " hosts no jobs; it cannot clear in a market");
        }
    }
}

double
FisherMarket::entitlementShare(std::size_t i) const
{
    return user(i).budget / budgetSum;
}

double
FisherMarket::entitledCores(std::size_t i) const
{
    return entitlementShare(i) * totalCores();
}

double
FisherMarket::entitledCoresOnServer(std::size_t i, std::size_t j) const
{
    return entitlementShare(i) * capacity(j);
}

AmdahlUtility
FisherMarket::utilityOf(std::size_t i) const
{
    const auto &u = user(i);
    std::vector<UtilityTerm> terms;
    terms.reserve(u.jobs.size());
    for (const auto &job : u.jobs)
        terms.push_back({job.parallelFraction, job.weight});
    return AmdahlUtility(std::move(terms));
}

double
MarketOutcome::userCores(std::size_t i) const
{
    if (i >= allocation.size())
        fatal("user index ", i, " out of range in outcome");
    double total = 0.0;
    for (double x : allocation[i])
        total += x;
    return total;
}

std::vector<double>
MarketOutcome::serverLoads(const FisherMarket &market) const
{
    if (allocation.size() != market.userCount())
        fatal("outcome allocation has wrong user count");
    std::vector<double> loads(market.serverCount(), 0.0);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        const auto &jobs = market.user(i).jobs;
        for (std::size_t k = 0; k < jobs.size(); ++k)
            loads[jobs[k].server] += allocation[i][k];
    }
    return loads;
}

ServerJobIndex::ServerJobIndex(const FisherMarket &market)
    : starts_(market.serverCount() + 1, 0)
{
    // Counting sort: count each server's jobs, prefix-sum the counts
    // into slice starts, then place jobs in user-major order, which
    // keeps every slice in that order.
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        for (const auto &job : market.user(i).jobs)
            ++starts_[job.server + 1];
    }
    for (std::size_t j = 0; j < market.serverCount(); ++j)
        starts_[j + 1] += starts_[j];
    entries_.resize(starts_.back());
    std::vector<std::size_t> next(starts_.begin(), starts_.end() - 1);
    for (std::size_t i = 0; i < market.userCount(); ++i) {
        const auto &jobs = market.user(i).jobs;
        for (std::size_t k = 0; k < jobs.size(); ++k)
            entries_[next[jobs[k].server]++] = {i, k};
    }
}

std::span<const JobRef>
ServerJobIndex::jobsOn(std::size_t j) const
{
    if (j >= serverCount())
        fatal("server index ", j, " out of range (", serverCount(), ")");
    return std::span<const JobRef>(entries_).subspan(
        starts_[j], starts_[j + 1] - starts_[j]);
}

bool
EquilibriumCheck::pass(double tol) const
{
    return maxClearingResidual <= tol && maxBudgetResidual <= tol &&
           maxOptimalityGap <= tol;
}

EquilibriumCheck
verifyEquilibrium(const FisherMarket &market, const MarketOutcome &outcome)
{
    if (outcome.prices.size() != market.serverCount())
        fatal("outcome has wrong price vector size");
    if (outcome.allocation.size() != market.userCount() ||
        outcome.bids.size() != market.userCount()) {
        fatal("outcome has wrong user count");
    }

    obs::ScopedTimer verify_timer(
        obs::timeHistogram("time.market.verify_us"));
    obs::metrics().counter("market.equilibrium_verifications").add();

    EquilibriumCheck check;

    // Contract: an outcome under verification has positive, finite
    // prices and non-negative, finite bids — otherwise the residuals
    // below are meaningless.
    if constexpr (checkedBuild) {
        invariants::CheckMarketState(outcome.prices, outcome.bids,
                                     "verifyEquilibrium");
    }

    // Condition 1: every server clears.
    const auto loads = outcome.serverLoads(market);
    for (std::size_t j = 0; j < market.serverCount(); ++j) {
        const double residual =
            std::abs(loads[j] - market.capacity(j)) / market.capacity(j);
        AMDAHL_CHECK_FINITE(residual);
        check.maxClearingResidual =
            std::max(check.maxClearingResidual, residual);
    }

    // Condition 2: each user's allocation solves her budget-constrained
    // utility maximization at the posted prices. The closed-form
    // water-filling solver gives the optimum to compare against.
    // Users are independent, so the pass runs on the pool; max is
    // exact in any fold order, so the check is thread-count invariant.
    struct Worst
    {
        double budget = 0.0;
        double gap = 0.0;
    };
    const Worst worst = exec::parallelReduce(
        std::size_t{0}, market.userCount(), kCertificateUserGrain,
        Worst{},
        [&](std::size_t lo, std::size_t hi) {
            Worst chunk;
            std::vector<solver::WaterFillItem> items;
            for (std::size_t i = lo; i < hi; ++i) {
                const auto &user = market.user(i);
                double spent = 0.0;
                for (double b : outcome.bids[i])
                    spent += b;
                chunk.budget =
                    std::max(chunk.budget,
                             std::abs(spent - user.budget) / user.budget);

                items.clear();
                for (const auto &job : user.jobs) {
                    items.push_back({job.weight, job.parallelFraction,
                                     outcome.prices[job.server]});
                }
                const auto best = solver::waterFill(items, user.budget);

                double actual = 0.0;
                for (std::size_t k = 0; k < user.jobs.size(); ++k) {
                    actual += user.jobs[k].weight *
                              amdahlSpeedup(user.jobs[k].parallelFraction,
                                            outcome.allocation[i][k]);
                }
                if (best.utility > 0.0) {
                    const double gap =
                        (best.utility - actual) / best.utility;
                    AMDAHL_CHECK_FINITE(gap);
                    chunk.gap = std::max(chunk.gap, gap);
                }
            }
            return chunk;
        },
        [](const Worst &a, const Worst &b) {
            return Worst{std::max(a.budget, b.budget),
                         std::max(a.gap, b.gap)};
        });
    check.maxBudgetResidual = worst.budget;
    check.maxOptimalityGap = worst.gap;
    // Published so an operator can watch certificate quality drift
    // without parsing bench output.
    auto &reg = obs::metrics();
    reg.gauge("market.last_clearing_residual")
        .set(check.maxClearingResidual);
    reg.gauge("market.last_budget_residual")
        .set(check.maxBudgetResidual);
    reg.gauge("market.last_optimality_gap").set(check.maxOptimalityGap);
    return check;
}

} // namespace amdahl::core
