/**
 * @file
 * Unit tests for the online (epoch-based) market simulator.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "alloc/amdahl_bidding_policy.hh"
#include "alloc/fallback_policy.hh"
#include "alloc/proportional_share.hh"
#include "common/logging.hh"
#include "core/bidding.hh"
#include "core/market.hh"
#include "eval/online.hh"
#include "obs/metrics.hh"

namespace amdahl::eval {
namespace {

OnlineOptions
smallScenario()
{
    OnlineOptions opts;
    opts.seed = 404;
    opts.users = 8;
    opts.servers = 4;
    opts.epochSeconds = 60.0;
    opts.horizonSeconds = 1800.0;
    opts.arrivalsPerServerEpoch = 0.5;
    return opts;
}

TEST(Online, JobsArriveAndComplete)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const auto m = sim.run(ab, FractionSource::Estimated);
    EXPECT_GT(m.jobsArrived, 0);
    EXPECT_GT(m.jobsCompleted, 0);
    EXPECT_LE(m.jobsCompleted, m.jobsArrived);
    EXPECT_GT(m.workCompleted, 0.0);
    EXPECT_EQ(m.policyName, "AB");
}

TEST(Online, CompletionTimesAreSane)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const auto m = sim.run(ab, FractionSource::Estimated);
    EXPECT_GT(m.meanCompletionSeconds, 0.0);
    EXPECT_GE(m.p95CompletionSeconds, m.meanCompletionSeconds * 0.5);
    for (const auto &job : m.jobs) {
        if (job.done()) {
            EXPECT_GE(job.completionSeconds, job.arrivalSeconds);
            EXPECT_DOUBLE_EQ(job.remainingWork, 0.0);
        } else {
            EXPECT_GT(job.remainingWork, 0.0);
            EXPECT_LE(job.remainingWork, job.totalWork);
        }
    }
}

TEST(Online, IdenticalArrivalStreamAcrossPolicies)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const auto ab = sim.run(alloc::AmdahlBiddingPolicy(),
                            FractionSource::Estimated);
    const auto ps = sim.run(alloc::ProportionalShare(),
                            FractionSource::Estimated);
    ASSERT_EQ(ab.jobsArrived, ps.jobsArrived);
    ASSERT_EQ(ab.jobs.size(), ps.jobs.size());
    for (std::size_t k = 0; k < ab.jobs.size(); ++k) {
        EXPECT_EQ(ab.jobs[k].server, ps.jobs[k].server);
        EXPECT_EQ(ab.jobs[k].workloadIndex, ps.jobs[k].workloadIndex);
        EXPECT_DOUBLE_EQ(ab.jobs[k].totalWork, ps.jobs[k].totalWork);
    }
}

TEST(Online, DeterministicGivenSeed)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const auto a = sim.run(ab, FractionSource::Estimated);
    const auto b = sim.run(ab, FractionSource::Estimated);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_DOUBLE_EQ(a.meanCompletionSeconds, b.meanCompletionSeconds);
}

TEST(Online, MarketBeatsProportionalShareOnThroughput)
{
    // The paper's one-shot advantage should compound over epochs:
    // under the same arrival stream, AB completes at least as much
    // work as PS.
    CharacterizationCache cache;
    auto opts = smallScenario();
    opts.arrivalsPerServerEpoch = 0.8; // enough load to differentiate
    OnlineSimulator sim(cache, opts);
    const auto ab = sim.run(alloc::AmdahlBiddingPolicy(),
                            FractionSource::Estimated);
    const auto ps = sim.run(alloc::ProportionalShare(),
                            FractionSource::Estimated);
    EXPECT_GE(ab.workCompleted, 0.98 * ps.workCompleted);
    EXPECT_GE(ab.meanWeightedSpeedup, 0.98 * ps.meanWeightedSpeedup);
}

TEST(Online, ZeroArrivalRateMeansNothingHappens)
{
    CharacterizationCache cache;
    auto opts = smallScenario();
    opts.arrivalsPerServerEpoch = 0.0;
    OnlineSimulator sim(cache, opts);
    const auto m = sim.run(alloc::AmdahlBiddingPolicy(),
                           FractionSource::Estimated);
    EXPECT_EQ(m.jobsArrived, 0);
    EXPECT_EQ(m.jobsCompleted, 0);
    EXPECT_DOUBLE_EQ(m.workCompleted, 0.0);
}

TEST(Online, PlacementRulesProduceValidRuns)
{
    CharacterizationCache cache;
    for (auto rule : {alloc::PlacementRule::RoundRobin,
                      alloc::PlacementRule::LeastLoaded,
                      alloc::PlacementRule::PriceAware}) {
        auto opts = smallScenario();
        opts.placement = rule;
        OnlineSimulator sim(cache, opts);
        const auto m = sim.run(alloc::AmdahlBiddingPolicy(),
                               FractionSource::Estimated);
        EXPECT_GT(m.jobsCompleted, 0) << toString(rule);
    }
}

TEST(Online, PlacementAffectsOutcomeUnderLoad)
{
    CharacterizationCache cache;
    auto opts = smallScenario();
    opts.arrivalsPerServerEpoch = 1.5;
    opts.workScaleMax = 1.5;

    opts.placement = alloc::PlacementRule::RoundRobin;
    const auto rr = OnlineSimulator(cache, opts)
                        .run(alloc::AmdahlBiddingPolicy(),
                             FractionSource::Estimated);
    opts.placement = alloc::PlacementRule::PriceAware;
    const auto pa = OnlineSimulator(cache, opts)
                        .run(alloc::AmdahlBiddingPolicy(),
                             FractionSource::Estimated);
    // Same arrival batches, different placements: completions differ.
    EXPECT_EQ(rr.jobsArrived, pa.jobsArrived);
    EXPECT_NE(rr.meanCompletionSeconds, pa.meanCompletionSeconds);
}

TEST(Online, LongRunMapeIsReported)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const auto m = sim.run(alloc::AmdahlBiddingPolicy(),
                           FractionSource::Estimated);
    EXPECT_GT(m.longRunEntitlementMape, 0.0);
    EXPECT_LT(m.longRunEntitlementMape, 200.0);
}

TEST(Online, DeficitCompensationImprovesLongRunFairness)
{
    CharacterizationCache cache;
    auto opts = smallScenario();
    opts.arrivalsPerServerEpoch = 1.5;
    opts.workScaleMax = 1.5;

    OnlineSimulator plain(cache, opts);
    const auto base = plain.run(alloc::AmdahlBiddingPolicy(),
                                FractionSource::Estimated);
    opts.deficitCompensation = true;
    OnlineSimulator compensated(cache, opts);
    const auto comp = compensated.run(alloc::AmdahlBiddingPolicy(),
                                      FractionSource::Estimated);
    EXPECT_LE(comp.longRunEntitlementMape,
              base.longRunEntitlementMape + 1.0);
}

namespace {

/** Full bit-level comparison of two runs' metrics and job logs. */
void
expectBitIdentical(const OnlineMetrics &a, const OnlineMetrics &b)
{
    EXPECT_EQ(a.jobsArrived, b.jobsArrived);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_DOUBLE_EQ(a.workCompleted, b.workCompleted);
    EXPECT_DOUBLE_EQ(a.meanCompletionSeconds, b.meanCompletionSeconds);
    EXPECT_DOUBLE_EQ(a.p95CompletionSeconds, b.p95CompletionSeconds);
    EXPECT_DOUBLE_EQ(a.meanJobsInSystem, b.meanJobsInSystem);
    EXPECT_DOUBLE_EQ(a.meanWeightedSpeedup, b.meanWeightedSpeedup);
    EXPECT_DOUBLE_EQ(a.longRunEntitlementMape,
                     b.longRunEntitlementMape);
    EXPECT_DOUBLE_EQ(a.availabilityWeightedEntitlementMape,
                     b.availabilityWeightedEntitlementMape);
    EXPECT_EQ(a.nonConvergedEpochs, b.nonConvergedEpochs);
    EXPECT_EQ(a.fallbackEpochsDamped, b.fallbackEpochsDamped);
    EXPECT_EQ(a.fallbackEpochsProportional,
              b.fallbackEpochsProportional);
    EXPECT_EQ(a.crashEvents, b.crashEvents);
    EXPECT_EQ(a.replacements, b.replacements);
    EXPECT_DOUBLE_EQ(a.workLostSeconds, b.workLostSeconds);
    ASSERT_EQ(a.occupancyHistory.size(), b.occupancyHistory.size());
    for (std::size_t e = 0; e < a.occupancyHistory.size(); ++e)
        EXPECT_DOUBLE_EQ(a.occupancyHistory[e], b.occupancyHistory[e]);
    ASSERT_EQ(a.speedupHistory.size(), b.speedupHistory.size());
    for (std::size_t e = 0; e < a.speedupHistory.size(); ++e)
        EXPECT_DOUBLE_EQ(a.speedupHistory[e], b.speedupHistory[e]);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t k = 0; k < a.jobs.size(); ++k) {
        EXPECT_EQ(a.jobs[k].user, b.jobs[k].user);
        EXPECT_EQ(a.jobs[k].server, b.jobs[k].server);
        EXPECT_EQ(a.jobs[k].workloadIndex, b.jobs[k].workloadIndex);
        EXPECT_DOUBLE_EQ(a.jobs[k].totalWork, b.jobs[k].totalWork);
        EXPECT_DOUBLE_EQ(a.jobs[k].remainingWork,
                         b.jobs[k].remainingWork);
        EXPECT_DOUBLE_EQ(a.jobs[k].completionSeconds,
                         b.jobs[k].completionSeconds);
    }
}

OnlineOptions
churnScenario()
{
    auto opts = smallScenario();
    opts.horizonSeconds = 3600.0;
    opts.arrivalsPerServerEpoch = 1.0;
    opts.faults.enabled = true;
    opts.faults.crashRatePerServerEpoch = 0.04;
    opts.faults.downEpochs = 2;
    opts.faults.checkpointEpochs = 4;
    opts.faults.bidLossRate = 0.1;
    return opts;
}

} // namespace

TEST(Online, RunsAreBitIdenticalGivenSeed)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    expectBitIdentical(sim.run(ab, FractionSource::Estimated),
                       sim.run(ab, FractionSource::Estimated));
}

TEST(Online, FaultScheduleRunsAreBitIdenticalGivenSeed)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, churnScenario());
    const alloc::FallbackPolicy fb;
    expectBitIdentical(sim.run(fb, FractionSource::Estimated),
                       sim.run(fb, FractionSource::Estimated));
}

TEST(Online, KernelReuseIsBitwiseInvisible)
{
    // reuseKernel is a pure structural cache: the run with it on must
    // be byte-identical to the plain run — same equilibria, same job
    // log, same histories. (warmStartBids' mean-field seed
    // legitimately changes low-order equilibrium bits, so it gets
    // determinism and certification tests, not an identity test.)
    CharacterizationCache cache;
    OnlineSimulator plain(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const auto reference = plain.run(ab, FractionSource::Estimated);

    OnlineOptions delta = smallScenario();
    delta.delta.reuseKernel = true;
    OnlineSimulator cachedSim(cache, delta);
    expectBitIdentical(cachedSim.run(ab, FractionSource::Estimated),
                       reference);
}

TEST(Online, DeltaRunsAreBitIdenticalGivenSeed)
{
    CharacterizationCache cache;
    OnlineOptions opts = smallScenario();
    opts.delta.reuseKernel = true;
    opts.delta.warmStartBids = true;
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    expectBitIdentical(sim.run(ab, FractionSource::Estimated),
                       sim.run(ab, FractionSource::Estimated));
}

TEST(Online, DeltaRunCompletesComparableWork)
{
    // The mean-field seed changes which equilibrium bits the solver
    // lands on, never the economics: the delta run must complete the
    // same jobs to within the usual cross-policy slack.
    CharacterizationCache cache;
    OnlineSimulator plain(cache, smallScenario());
    const alloc::AmdahlBiddingPolicy ab;
    const auto reference = plain.run(ab, FractionSource::Estimated);

    OnlineOptions opts = smallScenario();
    opts.delta.reuseKernel = true;
    opts.delta.warmStartBids = true;
    OnlineSimulator sim(cache, opts);
    const auto delta = sim.run(ab, FractionSource::Estimated);
    EXPECT_EQ(delta.jobsArrived, reference.jobsArrived);
    EXPECT_NEAR(delta.workCompleted, reference.workCompleted,
                0.02 * reference.workCompleted);
}

/**
 * Forwards every allocation to AB and checks each epoch that ran the
 * bidding loop: it converged, and its outcome is a certified
 * equilibrium (every residual within 1e-3).
 */
class CertifyingPolicy : public alloc::AllocationPolicy
{
  public:
    std::string name() const override { return ab_.name(); }

    alloc::AllocationResult
    allocate(const core::FisherMarket &market) const override
    {
        return certify(market, ab_.allocate(market));
    }

    alloc::AllocationResult
    allocate(const core::FisherMarket &market,
             const core::BidTransportFaults &faults) const override
    {
        return certify(market, ab_.allocate(market, faults));
    }

    alloc::AllocationResult
    allocate(const core::FisherMarket &market,
             const core::ClearingContext &ctx) const override
    {
        return certify(market, ab_.allocate(market, ctx));
    }

    /** Epochs that ran at least one bidding round. */
    int solvedEpochs() const { return solved_; }

  private:
    alloc::AllocationResult
    certify(const core::FisherMarket &market,
            alloc::AllocationResult result) const
    {
        if (result.outcome.iterations > 0) {
            ++solved_;
            EXPECT_TRUE(result.outcome.converged)
                << "after " << result.outcome.iterations << " rounds";
            const auto check =
                core::verifyEquilibrium(market, result.outcome);
            EXPECT_TRUE(check.pass(1e-3))
                << "optimality gap " << check.maxOptimalityGap;
        }
        return result;
    }

    alloc::AmdahlBiddingPolicy ab_;
    mutable int solved_ = 0;
};

TEST(Online, MeanFieldSeededEpochsCertify)
{
    // The seed is a trajectory hint, never a shortcut: at every churn
    // level, each seeded epoch must end converged and certified, the
    // way a cold start does.
    CharacterizationCache cache;
    for (std::uint64_t seed : {1, 2, 3, 404}) {
        for (double rate : {0.1, 0.5, 2.0}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", rate " +
                         std::to_string(rate));
            OnlineOptions opts;
            opts.seed = seed;
            opts.users = 64;
            opts.servers = 16;
            opts.epochSeconds = 60.0;
            opts.horizonSeconds = 40 * 60.0;
            opts.arrivalsPerServerEpoch = rate;
            opts.delta.reuseKernel = true;
            opts.delta.warmStartBids = true;
            OnlineSimulator sim(cache, opts);
            const CertifyingPolicy policy;
            auto &seeded =
                obs::metrics().counter("online.delta.meanfield_epochs");
            const std::uint64_t before = seeded.value();
            sim.run(policy, FractionSource::Estimated);
            EXPECT_GT(policy.solvedEpochs(), 0);
            EXPECT_EQ(seeded.value() - before,
                      static_cast<std::uint64_t>(policy.solvedEpochs()));
        }
    }
}

TEST(Online, IdenticalArrivalStreamAcrossPoliciesUnderFaults)
{
    // Crashes change completion order, which changes placement state,
    // so server assignments may diverge across policies — but the
    // arrival stream itself (who, what, how much, when) must not.
    CharacterizationCache cache;
    OnlineSimulator sim(cache, churnScenario());
    const auto ab = sim.run(alloc::AmdahlBiddingPolicy(),
                            FractionSource::Estimated);
    const auto ps = sim.run(alloc::ProportionalShare(),
                            FractionSource::Estimated);
    ASSERT_EQ(ab.jobsArrived, ps.jobsArrived);
    ASSERT_EQ(ab.jobs.size(), ps.jobs.size());
    for (std::size_t k = 0; k < ab.jobs.size(); ++k) {
        EXPECT_EQ(ab.jobs[k].user, ps.jobs[k].user);
        EXPECT_EQ(ab.jobs[k].workloadIndex, ps.jobs[k].workloadIndex);
        EXPECT_DOUBLE_EQ(ab.jobs[k].totalWork, ps.jobs[k].totalWork);
        EXPECT_DOUBLE_EQ(ab.jobs[k].arrivalSeconds,
                         ps.jobs[k].arrivalSeconds);
    }
    // The crash schedule is policy-independent too.
    EXPECT_EQ(ab.crashEvents, ps.crashEvents);
}

TEST(Online, FaultFreeRunsReportZeroResilienceCounters)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, smallScenario());
    const auto m = sim.run(alloc::AmdahlBiddingPolicy(),
                           FractionSource::Estimated);
    EXPECT_EQ(m.nonConvergedEpochs, 0);
    EXPECT_EQ(m.fallbackEpochsDamped, 0);
    EXPECT_EQ(m.fallbackEpochsProportional, 0);
    EXPECT_EQ(m.crashEvents, 0);
    EXPECT_EQ(m.replacements, 0);
    EXPECT_DOUBLE_EQ(m.workLostSeconds, 0.0);
    EXPECT_GT(m.availabilityWeightedEntitlementMape, 0.0);
}

TEST(Online, ChurnProducesResilienceAccountingAndCompletes)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, churnScenario());
    const auto m = sim.run(alloc::FallbackPolicy(),
                           FractionSource::Estimated);
    EXPECT_GT(m.crashEvents, 0);
    EXPECT_GT(m.replacements, 0);
    EXPECT_GT(m.workLostSeconds, 0.0);
    EXPECT_GT(m.jobsCompleted, 0);
    for (const auto &job : m.jobs) {
        if (job.done()) {
            EXPECT_DOUBLE_EQ(job.remainingWork, 0.0);
        }
    }
}

TEST(Online, CheckpointIntervalBoundsLostWork)
{
    // A single scripted crash: with per-epoch checkpoints the crash
    // epoch itself makes no durable progress but nothing older is
    // lost; with no effective checkpointing the job's whole history
    // rolls back. Trajectories are identical until the crash, so the
    // comparison isolates the checkpoint knob.
    CharacterizationCache cache;
    auto opts = smallScenario();
    opts.arrivalsPerServerEpoch = 1.0;
    // Jobs must span several epochs, or there is no uncheckpointed
    // progress for the crash to take.
    opts.workScaleMin = 2.0;
    opts.workScaleMax = 4.0;
    opts.faults.enabled = true;
    opts.faults.scriptedCrashes = {{1, 12, 15}};

    opts.faults.checkpointEpochs = 1;
    const auto tight = OnlineSimulator(cache, opts)
                           .run(alloc::AmdahlBiddingPolicy(),
                                FractionSource::Estimated);
    opts.faults.checkpointEpochs = 1000; // never checkpoints
    const auto loose = OnlineSimulator(cache, opts)
                           .run(alloc::AmdahlBiddingPolicy(),
                                FractionSource::Estimated);
    EXPECT_EQ(tight.crashEvents, 1);
    EXPECT_EQ(loose.crashEvents, 1);
    EXPECT_DOUBLE_EQ(tight.workLostSeconds, 0.0);
    EXPECT_GT(loose.workLostSeconds, 0.0);
}

TEST(Online, TotalOutageParksJobsUntilRecovery)
{
    CharacterizationCache cache;
    auto opts = smallScenario();
    opts.servers = 2;
    opts.arrivalsPerServerEpoch = 1.0;
    opts.faults.enabled = true;
    // Both servers down over epochs 6..14; the whole cluster is out.
    opts.faults.scriptedCrashes = {{0, 4, 15}, {1, 5, 15}};
    OnlineSimulator sim(cache, opts);
    const auto m = sim.run(alloc::AmdahlBiddingPolicy(),
                           FractionSource::Estimated);
    EXPECT_EQ(m.crashEvents, 2);
    EXPECT_GT(m.replacements, 0);
    // Arrivals kept coming during the outage and were parked; after
    // recovery everything is placed and work resumes.
    EXPECT_GT(m.jobsCompleted, 0);
    for (const auto &job : m.jobs)
        EXPECT_NE(job.server, OnlineJob::kUnplaced);
}

TEST(Online, NonConvergenceIsCountedWithoutFallback)
{
    // A plain AB policy with a starved iteration budget: epochs are
    // served unconverged (warned, rate-limited) and counted, with no
    // fallback rungs involved.
    CharacterizationCache cache;
    auto opts = smallScenario();
    opts.arrivalsPerServerEpoch = 1.0;
    OnlineSimulator sim(cache, opts);
    core::BiddingOptions starved;
    starved.maxIterations = 1;
    starved.priceTolerance = 1e-15;
    const auto m = sim.run(alloc::AmdahlBiddingPolicy(starved),
                           FractionSource::Estimated);
    EXPECT_GT(m.nonConvergedEpochs, 0);
    EXPECT_EQ(m.fallbackEpochsDamped, 0);
    EXPECT_EQ(m.fallbackEpochsProportional, 0);
}

TEST(Online, FallbackLadderAbsorbsNonConvergedEpochs)
{
    // Under the ladder every non-converged epoch is served by a
    // degraded rung, so the counters must reconcile exactly.
    CharacterizationCache cache;
    auto opts = churnScenario();
    opts.faults.bidLossRate = 0.9;
    OnlineSimulator sim(cache, opts);
    core::BiddingOptions primary;
    primary.maxIterations = 60;
    const auto m = sim.run(alloc::FallbackPolicy(primary),
                           FractionSource::Estimated);
    EXPECT_GT(m.nonConvergedEpochs, 0);
    EXPECT_EQ(m.nonConvergedEpochs,
              m.fallbackEpochsDamped + m.fallbackEpochsProportional);
}

TEST(Online, ValidatesFaultOptions)
{
    CharacterizationCache cache;
    auto opts = smallScenario();
    opts.faults.bidLossRate = 2.0;
    EXPECT_THROW(OnlineSimulator(cache, opts), FatalError);
    opts = smallScenario();
    opts.faults.checkpointEpochs = 0;
    EXPECT_THROW(OnlineSimulator(cache, opts), FatalError);
}

TEST(Online, ValidatesOptions)
{
    CharacterizationCache cache;
    auto opts = smallScenario();
    opts.users = 0;
    EXPECT_THROW(OnlineSimulator(cache, opts), FatalError);
    opts = smallScenario();
    opts.epochSeconds = 0.0;
    EXPECT_THROW(OnlineSimulator(cache, opts), FatalError);
    opts = smallScenario();
    opts.workScaleMax = 0.05; // below min
    EXPECT_THROW(OnlineSimulator(cache, opts), FatalError);
    opts = smallScenario();
    opts.coresPerServer = 999;
    EXPECT_THROW(OnlineSimulator(cache, opts), FatalError);
    opts = smallScenario();
    opts.arrivalsPerServerEpoch = -1.0;
    EXPECT_THROW(OnlineSimulator(cache, opts), FatalError);
}

TEST(Online, ValidationRejectsNaN)
{
    // Range checks written as `x <= 0` let NaN through (and a NaN
    // horizon makes epochCount() cast ceil(NaN) to int).
    CharacterizationCache cache;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double OnlineOptions::*field :
         {&OnlineOptions::epochSeconds, &OnlineOptions::horizonSeconds,
          &OnlineOptions::arrivalsPerServerEpoch,
          &OnlineOptions::workScaleMin, &OnlineOptions::workScaleMax}) {
        auto opts = smallScenario();
        opts.*field = nan;
        EXPECT_THROW(OnlineSimulator(cache, opts), FatalError);
    }
}

} // namespace
} // namespace amdahl::eval
