/**
 * @file
 * Unit tests for the event-driven task simulator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "core/amdahl.hh"
#include "sim/task_sim.hh"

namespace amdahl::sim {
namespace {

/** A clean Amdahl-like workload: no overheads, no skew. */
WorkloadSpec
cleanWorkload(double serial, double parallel, int tasks = 480)
{
    WorkloadSpec w;
    w.name = "clean";
    w.datasetGB = 1.0;
    StageSpec s;
    s.label = "serial";
    s.serialSeconds = serial;
    if (serial > 0.0)
        w.stages.push_back(s);
    StageSpec p;
    p.label = "parallel";
    p.parallelSeconds = parallel;
    p.scaling = TaskScaling::FixedTasks;
    p.fixedTasks = tasks;
    p.taskSkew = 0.0;
    w.stages.push_back(p);
    return w;
}

TEST(TaskSim, SingleCoreTimeMatchesTotalWork)
{
    TaskSimulator sim;
    const auto w = cleanWorkload(10.0, 90.0);
    EXPECT_NEAR(sim.executionSeconds(w, 1.0, 1), 100.0, 1e-9);
}

TEST(TaskSim, SpeedupIsOneOnOneCore)
{
    TaskSimulator sim;
    const auto w = cleanWorkload(10.0, 90.0);
    EXPECT_DOUBLE_EQ(sim.speedup(w, 1.0, 1), 1.0);
}

TEST(TaskSim, PureParallelWorkloadScalesLinearly)
{
    TaskSimulator sim;
    const auto w = cleanWorkload(0.0, 96.0, 960);
    for (int x : {2, 4, 8, 12, 24})
        EXPECT_NEAR(sim.speedup(w, 1.0, x), x, 0.05 * x);
}

TEST(TaskSim, CleanWorkloadTracksAmdahlsLaw)
{
    TaskSimulator sim;
    const auto w = cleanWorkload(20.0, 80.0, 2400);
    for (int x : {2, 4, 8, 16, 24}) {
        const double predicted = core::amdahlSpeedup(0.8, x);
        EXPECT_NEAR(sim.speedup(w, 1.0, x), predicted,
                    0.03 * predicted);
    }
}

TEST(TaskSim, SpeedupNeverExceedsCoreCount)
{
    TaskSimulator sim;
    const auto w = cleanWorkload(5.0, 95.0);
    for (int x : {2, 4, 8, 16, 24})
        EXPECT_LE(sim.speedup(w, 1.0, x), static_cast<double>(x) + 1e-9);
}

TEST(TaskSim, MoreCoresNeverSlower)
{
    TaskSimulator sim;
    const auto w = cleanWorkload(10.0, 90.0);
    double prev = sim.executionSeconds(w, 1.0, 1);
    for (int x = 2; x <= 24; ++x) {
        const double t = sim.executionSeconds(w, 1.0, x);
        EXPECT_LE(t, prev + 1e-9) << "at " << x << " cores";
        prev = t;
    }
}

TEST(TaskSim, TaskCountLimitsParallelism)
{
    // With 11 tasks (the kmeans pathology), 12 and 24 cores perform
    // identically.
    TaskSimulator sim;
    const auto w = cleanWorkload(0.0, 110.0, 11);
    EXPECT_NEAR(sim.executionSeconds(w, 1.0, 12),
                sim.executionSeconds(w, 1.0, 24), 1e-9);
    // And speedup is capped by the task count.
    EXPECT_LE(sim.speedup(w, 1.0, 24), 11.0 + 1e-9);
}

TEST(TaskSim, BlockScalingCreatesOneTaskPerBlock)
{
    WorkloadSpec w;
    w.name = "spark";
    w.datasetGB = 1.0;
    w.blockSizeGB = 0.032;
    StageSpec p;
    p.label = "read";
    p.parallelSeconds = 32.0;
    p.scaling = TaskScaling::BlocksOfDataset;
    w.stages = {p};

    TaskSimulator sim;
    const auto result = sim.execute(w, 1.0, 4);
    ASSERT_EQ(result.stages.size(), 1u);
    EXPECT_EQ(result.stages[0].tasks, 32); // ceil(1.0 / 0.032) = 32.
    const auto result24 = sim.execute(w, 24.0, 4);
    ASSERT_EQ(result24.stages.size(), 1u);
    EXPECT_EQ(result24.stages[0].tasks, 750); // the paper's ~800 blocks.
}

TEST(TaskSim, DispatchOverheadSerializesTinyTasks)
{
    // 1000 tiny tasks with 10 ms dispatch each: runtime is dominated by
    // the serialized dispatcher regardless of core count.
    WorkloadSpec w = cleanWorkload(0.0, 1.0, 1000);
    w.dispatchSecondsPerTask = 0.01;
    TaskSimulator sim;
    const double t24 = sim.executionSeconds(w, 1.0, 24);
    EXPECT_GE(t24, 10.0); // 1000 * 0.01 dispatch floor.
    EXPECT_LT(sim.speedup(w, 1.0, 24), 2.0);
}

TEST(TaskSim, CommunicationGrowsWithWorkers)
{
    WorkloadSpec w = cleanWorkload(0.0, 100.0, 2400);
    w.commSecondsPerWorker = 1.0;
    TaskSimulator sim;
    const auto r4 = sim.execute(w, 1.0, 4);
    const auto r24 = sim.execute(w, 1.0, 24);
    ASSERT_EQ(r4.stages.size(), 1u);
    ASSERT_EQ(r24.stages.size(), 1u);
    EXPECT_NEAR(r4.stages[0].commSeconds, 3.0, 1e-9);
    EXPECT_NEAR(r24.stages[0].commSeconds, 23.0, 1e-9);
}

TEST(TaskSim, BandwidthCeilingThrottlesParallelWork)
{
    WorkloadSpec w = cleanWorkload(0.0, 100.0, 2400);
    w.memBandwidthPerCoreGBps = 20.0;
    TaskSimulator sim; // default server: 119.4 GB/s.
    // 4 workers demand 80 GB/s: no throttle. 24 demand 480: 4x slower.
    const auto r4 = sim.execute(w, 1.0, 4);
    const auto r24 = sim.execute(w, 1.0, 24);
    EXPECT_DOUBLE_EQ(r4.stages[0].bandwidthSlowdown, 1.0);
    EXPECT_NEAR(r24.stages[0].bandwidthSlowdown, 480.0 / 119.4, 1e-9);
    // Net effect: 24 cores barely beat 4 cores.
    EXPECT_LT(sim.speedup(w, 1.0, 24) / sim.speedup(w, 1.0, 4), 2.0);
}

TEST(TaskSim, BandwidthSaturationSparesSmallDatasets)
{
    WorkloadSpec w = cleanWorkload(0.0, 100.0, 2400);
    w.memBandwidthPerCoreGBps = 20.0;
    w.memBandwidthSaturationGB = 2.0;
    TaskSimulator sim;
    // A 0.2 GB sample demands only 10% of nominal bandwidth.
    const auto small = sim.execute(w, 0.2, 24);
    EXPECT_DOUBLE_EQ(small.stages[0].bandwidthSlowdown, 1.0);
    const auto full = sim.execute(w, 2.0, 24);
    EXPECT_GT(full.stages[0].bandwidthSlowdown, 3.0);
}

TEST(TaskSim, ExecutionTimeScalesLinearlyWithDataset)
{
    TaskSimulator sim;
    const auto w = cleanWorkload(10.0, 90.0);
    const double t1 = sim.executionSeconds(w, 1.0, 8);
    const double t2 = sim.executionSeconds(w, 2.0, 8);
    const double t4 = sim.executionSeconds(w, 4.0, 8);
    EXPECT_NEAR(t2 / t1, 2.0, 0.1);
    EXPECT_NEAR(t4 / t2, 2.0, 0.1);
}

TEST(TaskSim, QuadraticTimeExponent)
{
    TaskSimulator sim;
    auto w = cleanWorkload(10.0, 90.0);
    w.timeExponent = 2.0;
    const double t1 = sim.executionSeconds(w, 1.0, 1);
    const double t2 = sim.executionSeconds(w, 2.0, 1);
    EXPECT_NEAR(t2 / t1, 4.0, 1e-6);
}

TEST(TaskSim, InterferenceSlowsParallelWork)
{
    TaskSimulator isolated;
    TaskSimulator contended;
    contended.setInterferenceSlowdown(1.15);
    const auto w = cleanWorkload(10.0, 90.0);
    const double t_iso = isolated.executionSeconds(w, 1.0, 8);
    const double t_con = contended.executionSeconds(w, 1.0, 8);
    EXPECT_GT(t_con, t_iso);
    // Serial time unaffected: total slowdown below 15%.
    EXPECT_LT(t_con / t_iso, 1.15);
}

TEST(TaskSim, InterferenceReducesMeasuredParallelism)
{
    TaskSimulator isolated;
    TaskSimulator contended;
    contended.setInterferenceSlowdown(1.15);
    const auto w = cleanWorkload(20.0, 80.0, 2400);
    EXPECT_LT(contended.speedup(w, 1.0, 24),
              isolated.speedup(w, 1.0, 24));
}

TEST(TaskSim, DeterministicAcrossCalls)
{
    TaskSimulator sim;
    auto w = cleanWorkload(5.0, 95.0);
    w.stages.back().taskSkew = 0.3;
    const double a = sim.executionSeconds(w, 1.0, 7);
    const double b = sim.executionSeconds(w, 1.0, 7);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(TaskSim, SkewPreservesApproximateMeanWork)
{
    TaskSimulator sim;
    auto skewed = cleanWorkload(0.0, 100.0, 1000);
    skewed.stages.back().taskSkew = 0.5;
    // On one core, total time equals total work regardless of skew
    // (up to the jitter's symmetric distribution).
    EXPECT_NEAR(sim.executionSeconds(skewed, 1.0, 1), 100.0, 2.0);
}

TEST(TaskSim, ZeroFailureRateIsBitIdentical)
{
    TaskSimulator plain;
    TaskSimulator with_knob;
    with_knob.setTaskFailureRate(0.0);
    const auto w = cleanWorkload(10.0, 90.0);
    EXPECT_DOUBLE_EQ(plain.executionSeconds(w, 1.0, 8),
                     with_knob.executionSeconds(w, 1.0, 8));
}

TEST(TaskSim, FailuresExtendExecution)
{
    TaskSimulator reliable;
    TaskSimulator flaky;
    flaky.setTaskFailureRate(0.1);
    const auto w = cleanWorkload(10.0, 90.0);
    const double t_ok = reliable.executionSeconds(w, 1.0, 8);
    const double t_flaky = flaky.executionSeconds(w, 1.0, 8);
    EXPECT_GT(t_flaky, t_ok);
    // ~10% of tasks re-run once: at most ~2x, typically ~1.1x.
    EXPECT_LT(t_flaky, 1.5 * t_ok);
}

TEST(TaskSim, FailureCountsAreReported)
{
    TaskSimulator flaky;
    flaky.setTaskFailureRate(0.2);
    const auto w = cleanWorkload(0.0, 96.0, 960);
    const auto result = flaky.execute(w, 1.0, 8);
    int failures = 0;
    for (const auto &stage : result.stages)
        failures += stage.failures;
    // E[failures] = 192; allow generous slack for the deterministic
    // stream.
    EXPECT_GT(failures, 120);
    EXPECT_LT(failures, 280);
}

TEST(TaskSim, FailuresAreDeterministic)
{
    TaskSimulator a, b;
    a.setTaskFailureRate(0.15);
    b.setTaskFailureRate(0.15);
    const auto w = cleanWorkload(5.0, 95.0);
    EXPECT_DOUBLE_EQ(a.executionSeconds(w, 1.0, 6),
                     b.executionSeconds(w, 1.0, 6));
}

TEST(TaskSim, FailureRateValidated)
{
    TaskSimulator sim;
    EXPECT_THROW(sim.setTaskFailureRate(-0.1), FatalError);
    EXPECT_THROW(sim.setTaskFailureRate(1.0), FatalError);
}

TEST(TaskSim, CriticalPathRetriesHurtWideAllocations)
{
    // With many task waves, retry work spreads across waves and
    // inflates T(1) and T(x) proportionally. With a single wave
    // (tasks == cores), one retry doubles the whole wave: the retry
    // sits on the critical path and wide allocations lose speedup.
    TaskSimulator reliable;
    TaskSimulator flaky;
    flaky.setTaskFailureRate(0.15);
    auto w = cleanWorkload(5.0, 95.0, 24);
    const double s_ok = reliable.speedup(w, 1.0, 24);
    const double s_flaky = flaky.speedup(w, 1.0, 24);
    EXPECT_LT(s_flaky, s_ok);
}

TEST(TaskSim, ValidatesArguments)
{
    TaskSimulator sim;
    const auto w = cleanWorkload(1.0, 9.0);
    EXPECT_THROW(sim.executionSeconds(w, 0.0, 1), FatalError);
    EXPECT_THROW(sim.executionSeconds(w, 1.0, 0), FatalError);
    EXPECT_THROW(sim.executionSeconds(w, 1.0, 25), FatalError);
    EXPECT_THROW(sim.setInterferenceSlowdown(0.9), FatalError);
}

TEST(TaskSim, ValidationRejectsNaN)
{
    TaskSimulator sim;
    const auto w = cleanWorkload(1.0, 9.0);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(sim.executionSeconds(w, nan, 1), FatalError);
    EXPECT_THROW(sim.setInterferenceSlowdown(nan), FatalError);
    EXPECT_THROW(sim.setTaskFailureRate(nan), FatalError);
}

TEST(TaskSim, StageBreakdownIsConsistent)
{
    TaskSimulator sim;
    const auto w = cleanWorkload(10.0, 90.0);
    const auto result = sim.execute(w, 1.0, 4);
    ASSERT_EQ(result.stages.size(), 2u);
    EXPECT_DOUBLE_EQ(result.stages.front().startSeconds, 0.0);
    EXPECT_DOUBLE_EQ(result.stages.back().endSeconds,
                     result.totalSeconds);
    for (std::size_t s = 1; s < result.stages.size(); ++s) {
        EXPECT_DOUBLE_EQ(result.stages[s].startSeconds,
                         result.stages[s - 1].endSeconds);
    }
}

TEST(TaskSim, WorkersNeverExceedTasksOrCores)
{
    TaskSimulator sim;
    const auto w = cleanWorkload(0.0, 10.0, 5);
    const auto result = sim.execute(w, 1.0, 24);
    EXPECT_EQ(result.stages[0].workers, 5);
    const auto result2 = sim.execute(w, 1.0, 3);
    EXPECT_EQ(result2.stages[0].workers, 3);
}

} // namespace
} // namespace amdahl::sim
