/**
 * @file
 * Unit tests for overload admission control in the online simulator:
 * bounded occupancy, bounded queues with shedding, metric accounting,
 * and bit-identical behavior when the feature is disabled.
 */

#include <gtest/gtest.h>

#include <limits>

#include "alloc/amdahl_bidding_policy.hh"
#include "alloc/fallback_policy.hh"
#include "common/logging.hh"
#include "eval/online.hh"

namespace amdahl::eval {
namespace {

/** A deliberately overloaded scenario: ~10 arrivals per server-epoch
 *  of mid-sized jobs on a small cluster. */
OnlineOptions
overloadScenario()
{
    OnlineOptions opts;
    opts.seed = 9090;
    opts.users = 8;
    opts.servers = 4;
    opts.epochSeconds = 60.0;
    opts.horizonSeconds = 1800.0;
    opts.arrivalsPerServerEpoch = 10.0;
    opts.workScaleMin = 0.5;
    opts.workScaleMax = 1.5;
    return opts;
}

OnlineMetrics
runWith(const OnlineOptions &opts)
{
    CharacterizationCache cache;
    OnlineSimulator sim(cache, opts);
    const alloc::AmdahlBiddingPolicy ab;
    return sim.run(ab, FractionSource::Estimated);
}

TEST(Admission, DisabledFeatureIsBitIdentical)
{
    auto base = overloadScenario();
    auto knobs_changed = base;
    // Disabled admission options must be inert: changing every knob
    // while enabled stays false cannot perturb the run.
    knobs_changed.admission.maxLoadFactor = 1.0;
    knobs_changed.admission.maxQueueLength = 0;

    const auto a = runWith(base);
    const auto b = runWith(knobs_changed);
    ASSERT_EQ(a.jobsArrived, b.jobsArrived);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    EXPECT_EQ(a.occupancyHistory, b.occupancyHistory);
    EXPECT_EQ(a.meanCompletionSeconds, b.meanCompletionSeconds);
    EXPECT_EQ(a.workCompleted, b.workCompleted);
    // And the overload counters stay zero without the feature.
    EXPECT_EQ(a.jobsQueued, 0);
    EXPECT_EQ(a.jobsShed, 0);
    EXPECT_EQ(a.jobsQueuedAtHorizon, 0);
    EXPECT_EQ(a.sheddingRate, 0.0);
    EXPECT_EQ(a.meanQueueDelaySeconds, 0.0);
    EXPECT_EQ(a.peakQueueLength, 0);
}

TEST(Admission, ArrivalStreamUnchangedByAdmission)
{
    auto open = overloadScenario();
    auto gated = overloadScenario();
    gated.admission.enabled = true;
    gated.admission.maxLoadFactor = 4.0;
    const auto a = runWith(open);
    const auto b = runWith(gated);
    // Same seed, same demand: admission only decides what happens
    // after each job is drawn.
    EXPECT_EQ(a.jobsArrived, b.jobsArrived);
}

TEST(Admission, OccupancyIsBoundedByTheCap)
{
    auto opts = overloadScenario();
    opts.admission.enabled = true;
    opts.admission.maxLoadFactor = 4.0;
    const auto m = runWith(opts);
    const double cap =
        opts.admission.maxLoadFactor * opts.servers;
    for (double occ : m.occupancyHistory)
        EXPECT_LE(occ, cap);
    EXPECT_GT(m.jobsCompleted, 0);
    // The open system, by contrast, blows straight through the cap.
    const auto open = runWith(overloadScenario());
    double peak = 0.0;
    for (double occ : open.occupancyHistory)
        peak = std::max(peak, occ);
    EXPECT_GT(peak, cap);
    EXPECT_LT(m.meanJobsInSystem, open.meanJobsInSystem);
}

TEST(Admission, JobAccountingConserves)
{
    auto opts = overloadScenario();
    opts.admission.enabled = true;
    opts.admission.maxLoadFactor = 3.0;
    opts.admission.maxQueueLength = 8;
    const auto m = runWith(opts);
    // Every drawn arrival is admitted (in the job log), still queued,
    // or shed — nothing vanishes.
    EXPECT_EQ(static_cast<int>(m.jobs.size()) +
                  m.jobsQueuedAtHorizon + m.jobsShed,
              m.jobsArrived);
    EXPECT_GT(m.jobsQueued, 0);
    EXPECT_GT(m.jobsShed, 0);
    EXPECT_LE(m.jobsShed, m.jobsQueued);
    EXPECT_NEAR(m.sheddingRate,
                static_cast<double>(m.jobsShed) / m.jobsArrived,
                1e-12);
    EXPECT_LE(m.peakQueueLength, opts.admission.maxQueueLength);
    EXPECT_GT(m.meanQueueDelaySeconds, 0.0);
}

TEST(Admission, ZeroQueueShedsEveryOverCapArrival)
{
    auto opts = overloadScenario();
    opts.admission.enabled = true;
    opts.admission.maxLoadFactor = 2.0;
    opts.admission.maxQueueLength = 0;
    const auto m = runWith(opts);
    // With no queue, backpressure degenerates to immediate shedding:
    // everything that ever queued was shed in the same step.
    EXPECT_EQ(m.jobsShed, m.jobsQueued);
    EXPECT_EQ(m.jobsQueuedAtHorizon, 0);
    EXPECT_EQ(m.peakQueueLength, 0);
    EXPECT_EQ(m.meanQueueDelaySeconds, 0.0);
    EXPECT_GT(m.jobsShed, 0);
}

TEST(Admission, EntitlementSheddingConserves)
{
    auto opts = overloadScenario();
    opts.admission.enabled = true;
    opts.admission.maxLoadFactor = 3.0;
    opts.admission.maxQueueLength = 4;

    const auto m = runWith(opts);
    EXPECT_GT(m.jobsShed, 0);
    EXPECT_EQ(static_cast<int>(m.jobs.size()) + m.jobsQueuedAtHorizon +
                  m.jobsShed,
              m.jobsArrived);
}

TEST(Admission, InvalidOptionsThrow)
{
    CharacterizationCache cache;
    auto opts = overloadScenario();
    opts.admission.maxLoadFactor = 0.0;
    EXPECT_THROW(OnlineSimulator(cache, opts), FatalError);
    opts.admission.maxLoadFactor =
        std::numeric_limits<double>::infinity();
    EXPECT_THROW(OnlineSimulator(cache, opts), FatalError);
    opts = overloadScenario();
    opts.admission.maxQueueLength = -1;
    EXPECT_THROW(OnlineSimulator(cache, opts), FatalError);
}

TEST(Admission, DeadlineEpochsAreCounted)
{
    // A one-iteration clearing deadline on a loaded scenario must
    // surface in the overload metrics and still complete jobs.
    auto opts = overloadScenario();
    opts.arrivalsPerServerEpoch = 2.0;
    CharacterizationCache cache;
    OnlineSimulator sim(cache, opts);
    core::BiddingOptions primary;
    primary.deadline.iterationBudget = 1;
    const alloc::FallbackPolicy policy(primary);
    const auto m = sim.run(policy, FractionSource::Estimated);
    EXPECT_GT(m.deadlineExpiredEpochs, 0);
    EXPECT_EQ(m.deadlineExpiredEpochs, m.fallbackEpochsDeadline);
    EXPECT_GT(m.jobsCompleted, 0);
}

} // namespace
} // namespace amdahl::eval
