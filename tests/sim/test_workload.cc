/**
 * @file
 * Unit tests for workload specifications.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/workload.hh"

namespace amdahl::sim {
namespace {

WorkloadSpec
minimalSpec()
{
    WorkloadSpec w;
    w.name = "toy";
    w.datasetGB = 2.0;
    StageSpec serial;
    serial.label = "s";
    serial.serialSeconds = 10.0;
    StageSpec parallel;
    parallel.label = "p";
    parallel.parallelSeconds = 90.0;
    w.stages = {serial, parallel};
    return w;
}

TEST(Workload, SuiteNames)
{
    EXPECT_EQ(toString(Suite::Spark), "Spark");
    EXPECT_EQ(toString(Suite::Parsec), "PARSEC");
}

TEST(Workload, StructuralParallelFraction)
{
    EXPECT_DOUBLE_EQ(minimalSpec().structuralParallelFraction(), 0.9);
}

TEST(Workload, ValidSpecPassesValidation)
{
    EXPECT_NO_THROW(minimalSpec().validate());
}

TEST(Workload, RejectsEmptyName)
{
    auto w = minimalSpec();
    w.name.clear();
    EXPECT_THROW(w.validate(), FatalError);
}

TEST(Workload, RejectsNoStages)
{
    auto w = minimalSpec();
    w.stages.clear();
    EXPECT_THROW(w.validate(), FatalError);
}

TEST(Workload, RejectsNonPositiveDataset)
{
    auto w = minimalSpec();
    w.datasetGB = 0.0;
    EXPECT_THROW(w.validate(), FatalError);
}

TEST(Workload, RejectsNegativeOverheads)
{
    auto w = minimalSpec();
    w.dispatchSecondsPerTask = -0.1;
    EXPECT_THROW(w.validate(), FatalError);

    w = minimalSpec();
    w.commSecondsPerWorker = -1.0;
    EXPECT_THROW(w.validate(), FatalError);

    w = minimalSpec();
    w.memBandwidthPerCoreGBps = -1.0;
    EXPECT_THROW(w.validate(), FatalError);
}

TEST(Workload, RejectsEmptyStage)
{
    auto w = minimalSpec();
    StageSpec empty;
    empty.label = "empty";
    w.stages.push_back(empty);
    EXPECT_THROW(w.validate(), FatalError);
}

TEST(Workload, RejectsBadTaskCount)
{
    auto w = minimalSpec();
    w.stages[1].scaling = TaskScaling::FixedTasks;
    w.stages[1].fixedTasks = 0;
    EXPECT_THROW(w.validate(), FatalError);
}

TEST(Workload, RejectsBadSkew)
{
    auto w = minimalSpec();
    w.stages[1].taskSkew = 1.0;
    EXPECT_THROW(w.validate(), FatalError);
    w.stages[1].taskSkew = -0.1;
    EXPECT_THROW(w.validate(), FatalError);
}

TEST(Workload, RejectsNonPositiveTimeExponent)
{
    auto w = minimalSpec();
    w.timeExponent = 0.0;
    EXPECT_THROW(w.validate(), FatalError);
}

TEST(Workload, PureSerialWorkloadHasZeroFraction)
{
    WorkloadSpec w;
    w.name = "serial";
    w.datasetGB = 1.0;
    StageSpec s;
    s.label = "only";
    s.serialSeconds = 10.0;
    w.stages = {s};
    EXPECT_DOUBLE_EQ(w.structuralParallelFraction(), 0.0);
}

} // namespace
} // namespace amdahl::sim
