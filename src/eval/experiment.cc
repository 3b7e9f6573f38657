#include "experiment.hh"

#include <cmath>
#include <memory>

#include "alloc/amdahl_bidding_policy.hh"
#include "alloc/best_response.hh"
#include "alloc/greedy.hh"
#include "alloc/proportional_share.hh"
#include "common/logging.hh"
#include "core/bidding.hh"
#include "core/entitlement.hh"
#include "exec/thread_pool.hh"
#include "obs/timer.hh"
#include "sim/workload_library.hh"

// Parallel-evaluation recipe used throughout this file: every
// stochastic input (populations, victim indices, perturbation draws)
// is pre-drawn *serially* from the driver's RNG in the exact legacy
// order, trials are then evaluated concurrently (they share only the
// mutexed characterization cache and the thread-safe metrics
// registry), and per-trial results are folded *serially* in trial
// order. Floating-point accumulation therefore associates exactly as
// the old sequential loops did — results are bit-identical at any
// thread count, including 1.

namespace amdahl::eval {

namespace {

/** One trial per chunk: trials are whole-market solves, far above any
 *  sensible grain. */
constexpr std::size_t kTrialGrain = 1;

} // namespace

core::FisherMarket
buildMarket(const Population &pop, CharacterizationCache &cache,
            FractionSource source)
{
    std::vector<double> capacities(pop.serverCount);
    for (std::size_t j = 0; j < pop.serverCount; ++j)
        capacities[j] = static_cast<double>(pop.coresOf(j));
    core::FisherMarket market(std::move(capacities));
    for (std::size_t i = 0; i < pop.userCount(); ++i) {
        core::MarketUser user;
        user.name = "user" + std::to_string(i);
        user.budget = pop.budgets[i];
        for (const auto &job : pop.userJobs[i]) {
            core::JobSpec spec;
            spec.server = job.server;
            spec.parallelFraction =
                cache.fraction(job.workloadIndex, source);
            spec.weight = 1.0;
            user.jobs.push_back(spec);
        }
        market.addUser(std::move(user));
    }
    return market;
}

ExperimentDriver::ExperimentDriver() : ExperimentDriver(Config()) {}

ExperimentDriver::ExperimentDriver(Config config)
    : cfg(config), cache_(), rng(config.seed)
{
    if (cfg.populationsPerPoint < 1)
        fatal("need at least one population per point");
}

Population
ExperimentDriver::nextPopulation(int density)
{
    return nextPopulation(cfg.users, cfg.serverMultiplier, density);
}

Population
ExperimentDriver::nextPopulation(int users, double multiplier, int density)
{
    PopulationOptions opts;
    opts.users = users;
    opts.serverMultiplier = multiplier;
    opts.density = density;
    opts.coresPerServer = cfg.coresPerServer;
    opts.workloadCount = sim::workloadLibrary().size();
    return generatePopulation(rng, opts);
}

DensitySweepRow
ExperimentDriver::runDensityPoint(int density)
{
    DensitySweepRow row;
    row.density = density;

    // The five mechanisms of Section VI-A. Oracle policies (G, UB) see
    // measured fractions; market policies (AB, BR) see the estimates
    // their deployments would actually have.
    struct Entry
    {
        std::unique_ptr<alloc::AllocationPolicy> policy;
        FractionSource source;
    };
    std::vector<Entry> entries;
    entries.push_back({std::make_unique<alloc::GreedyPolicy>(),
                       FractionSource::Measured});
    entries.push_back({std::make_unique<alloc::ProportionalShare>(),
                       FractionSource::Measured});
    entries.push_back({std::make_unique<alloc::AmdahlBiddingPolicy>(),
                       FractionSource::Estimated});
    if (cfg.includeBestResponse) {
        entries.push_back({std::make_unique<alloc::BestResponsePolicy>(),
                           FractionSource::Estimated});
    }
    entries.push_back({std::make_unique<alloc::UpperBoundPolicy>(),
                       FractionSource::Measured});
    for (const auto &entry : entries)
        row.policies.push_back(entry.policy->name());

    ProgressEvaluator evaluator(cache_);
    std::map<std::string, std::map<int, double>> class_sums;
    std::map<std::string, std::map<int, std::size_t>> class_counts;

    // Pre-draw every population serially: the RNG stream advances in
    // the exact legacy order regardless of the thread count.
    const auto pop_count =
        static_cast<std::size_t>(cfg.populationsPerPoint);
    std::vector<Population> pops;
    pops.reserve(pop_count);
    for (std::size_t p = 0; p < pop_count; ++p)
        pops.push_back(nextPopulation(density));

    // Evaluate trials concurrently; one record per (trial, policy).
    struct EntryEval
    {
        double sysProgress = 0.0;
        int iterations = 0;
        double mape = 0.0;
        std::vector<double> progress; // per user
    };
    std::vector<std::vector<EntryEval>> evals(pop_count);

    obs::ScopedTimer point_timer(
        obs::timeHistogram("time.eval.density_point_us"));
    exec::parallelFor(
        0, pop_count, kTrialGrain,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t p = lo; p < hi; ++p) {
                const Population &pop = pops[p];
                const auto measured =
                    buildMarket(pop, cache_, FractionSource::Measured);
                const auto estimated = buildMarket(
                    pop, cache_, FractionSource::Estimated);

                evals[p].resize(entries.size());
                for (std::size_t e = 0; e < entries.size(); ++e) {
                    const auto &entry = entries[e];
                    const auto &market =
                        entry.source == FractionSource::Measured
                            ? measured
                            : estimated;
                    const auto result = entry.policy->allocate(market);
                    EntryEval &ev = evals[p][e];

                    ev.sysProgress =
                        evaluator.systemProgress(pop, result.cores);
                    ev.iterations = result.outcome.iterations;

                    ev.mape =
                        core::entitlementMape(market, result.cores);

                    ev.progress =
                        evaluator.allUserProgress(pop, result.cores);
                }
            }
        });

    // Fold in (trial, policy, user) order — the legacy accumulation
    // order, so the averaged sums are bit-identical to the serial run.
    for (std::size_t p = 0; p < pop_count; ++p) {
        const Population &pop = pops[p];
        for (std::size_t e = 0; e < entries.size(); ++e) {
            const auto &name = entries[e].policy->name();
            const EntryEval &ev = evals[p][e];
            auto &metrics = row.byPolicy[name];
            metrics.sysProgress += ev.sysProgress;
            metrics.meanIterations += ev.iterations;
            metrics.mape += ev.mape;
            for (std::size_t i = 0; i < pop.userCount(); ++i) {
                const int cls = pop.entitlementClass(i);
                class_sums[name][cls] += ev.progress[i];
                class_counts[name][cls] += 1;
            }
        }
    }

    const double scale = static_cast<double>(cfg.populationsPerPoint);
    for (auto &[name, metrics] : row.byPolicy) {
        metrics.sysProgress /= scale;
        metrics.mape /= scale;
        metrics.meanIterations /= scale;
        for (const auto &[cls, sum] : class_sums[name]) {
            metrics.classProgress[cls] =
                sum / static_cast<double>(class_counts[name][cls]);
        }
    }
    return row;
}

double
ExperimentDriver::runSensitivity(int density,
                                 std::pair<double, double> bucket,
                                 int trials)
{
    if (trials < 1)
        fatal("need at least one sensitivity trial");
    if (bucket.first < 0.0 || bucket.second < bucket.first ||
        bucket.second > 100.0) {
        fatal("invalid reduction bucket [", bucket.first, ", ",
              bucket.second, "]");
    }

    alloc::AmdahlBiddingPolicy ab;

    // Pre-draw (population, victim, reduction) per trial in the legacy
    // stream order; the draws interleave exactly as the old loop's.
    struct Trial
    {
        Population pop;
        std::size_t victim = 0;
        double reduction = 0.0;
    };
    const auto trial_count = static_cast<std::size_t>(trials);
    std::vector<Trial> setup(trial_count);
    for (auto &trial : setup) {
        trial.pop = nextPopulation(density);
        // Perturb one random user: contention lowers the effective
        // parallel fraction of *all* her jobs.
        trial.victim = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(trial.pop.userCount()) - 1));
        trial.reduction = rng.uniform(bucket.first, bucket.second);
    }

    std::vector<double> maes(trial_count, 0.0);
    exec::parallelFor(
        0, trial_count, kTrialGrain,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t t = lo; t < hi; ++t) {
                const Trial &trial = setup[t];
                auto market = buildMarket(trial.pop, cache_,
                                          FractionSource::Estimated);
                const auto baseline = ab.allocate(market);

                core::FisherMarket adjusted(market.capacities());
                for (std::size_t i = 0; i < trial.pop.userCount();
                     ++i) {
                    core::MarketUser user = market.user(i);
                    if (i == trial.victim) {
                        for (auto &job : user.jobs) {
                            job.parallelFraction *=
                                1.0 - trial.reduction / 100.0;
                        }
                    }
                    adjusted.addUser(std::move(user));
                }
                const auto perturbed = ab.allocate(adjusted);

                // MAE over the victim's per-job fractional
                // allocations.
                double mae = 0.0;
                const auto &orig =
                    baseline.outcome.allocation[trial.victim];
                const auto &pert =
                    perturbed.outcome.allocation[trial.victim];
                for (std::size_t k = 0; k < orig.size(); ++k)
                    mae += std::abs(orig[k] - pert[k]);
                maes[t] = mae / static_cast<double>(orig.size());
            }
        });

    double mae_sum = 0.0;
    for (double mae : maes)
        mae_sum += mae;
    return mae_sum / static_cast<double>(trials);
}

ExperimentDriver::MisreportStudy
ExperimentDriver::runMisreport(int users, int density, double exaggeration,
                               int trials)
{
    if (trials < 1)
        fatal("need at least one misreport trial");
    if (exaggeration <= 0.0 || exaggeration > 1.0)
        fatal("exaggeration must be in (0, 1], got ", exaggeration);

    MisreportStudy study;
    alloc::AmdahlBiddingPolicy ab;

    // Pre-draw (population, liar) per trial in legacy stream order.
    struct Trial
    {
        Population pop;
        std::size_t liar = 0;
    };
    const auto trial_count = static_cast<std::size_t>(trials);
    std::vector<Trial> setup(trial_count);
    for (auto &trial : setup) {
        trial.pop = nextPopulation(users, cfg.serverMultiplier, density);
        trial.liar = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(trial.pop.userCount()) - 1));
    }

    struct Outcome
    {
        double truthful = 0.0;
        double misreport = 0.0;
    };
    std::vector<Outcome> outcomes(trial_count);
    exec::parallelFor(
        0, trial_count, kTrialGrain,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t t = lo; t < hi; ++t) {
                const Trial &trial = setup[t];
                const auto market = buildMarket(
                    trial.pop, cache_, FractionSource::Estimated);
                const std::size_t liar = trial.liar;

                // Truthful run, scored with the liar's true utility.
                const auto truthful = ab.allocate(market);
                const auto utility = market.utilityOf(liar);
                outcomes[t].truthful =
                    utility.value(truthful.outcome.allocation[liar]);

                // Misreport: the liar claims most of her remaining
                // parallelism headroom on every job.
                core::FisherMarket shaded(market.capacities());
                for (std::size_t i = 0; i < market.userCount(); ++i) {
                    core::MarketUser user = market.user(i);
                    if (i == liar) {
                        for (auto &job : user.jobs) {
                            job.parallelFraction = std::min(
                                0.999,
                                job.parallelFraction +
                                    exaggeration *
                                        (1.0 - job.parallelFraction));
                        }
                    }
                    shaded.addUser(std::move(user));
                }
                const auto manipulated = ab.allocate(shaded);
                outcomes[t].misreport = utility.value(
                    manipulated.outcome.allocation[liar]);
            }
        });

    for (const Outcome &outcome : outcomes) {
        const double gain = 100.0 *
                            (outcome.misreport - outcome.truthful) /
                            outcome.truthful;
        study.meanTruthfulUtility += outcome.truthful;
        study.meanMisreportUtility += outcome.misreport;
        study.meanGainPercent += gain;
        study.maxGainPercent = std::max(study.maxGainPercent, gain);
    }
    const double scale = 1.0 / static_cast<double>(trials);
    study.meanTruthfulUtility *= scale;
    study.meanMisreportUtility *= scale;
    study.meanGainPercent *= scale;
    return study;
}

double
ExperimentDriver::meanBiddingIterations(int users, double server_multiplier,
                                        int density, int populations)
{
    if (populations < 1)
        fatal("need at least one population");
    const auto pop_count = static_cast<std::size_t>(populations);
    std::vector<Population> pops;
    pops.reserve(pop_count);
    for (std::size_t p = 0; p < pop_count; ++p)
        pops.push_back(nextPopulation(users, server_multiplier, density));

    std::vector<int> iterations(pop_count, 0);
    exec::parallelFor(
        0, pop_count, kTrialGrain,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t p = lo; p < hi; ++p) {
                const auto market = buildMarket(
                    pops[p], cache_, FractionSource::Estimated);
                const auto result = core::solveAmdahlBidding(market);
                iterations[p] = result.iterations;
            }
        });

    double total = 0.0;
    for (int iters : iterations)
        total += iters;
    return total / static_cast<double>(populations);
}

} // namespace amdahl::eval
