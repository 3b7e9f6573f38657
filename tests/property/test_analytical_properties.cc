/**
 * @file
 * Cross-validation of the analytical model against the event-driven
 * simulator, across the full workload library.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/logging.hh"

#include "sim/analytical.hh"
#include "sim/task_sim.hh"
#include "sim/workload_library.hh"

namespace amdahl::sim {
namespace {

class AnalyticalCross : public ::testing::TestWithParam<int>
{
  protected:
    const WorkloadSpec &
    workload() const
    {
        return workloadLibrary()[static_cast<std::size_t>(GetParam())];
    }
};

TEST_P(AnalyticalCross, TimesTrackTheEventSimulator)
{
    // The analytical model ignores straggler skew and exact wave
    // packing, so allow 10% — the usual fidelity of a first-order
    // model against a detailed one.
    const TaskSimulator detailed;
    const AnalyticalModel fast;
    const auto &w = workload();
    for (int x : {1, 2, 4, 8, 16, 24}) {
        const double t_sim =
            detailed.executionSeconds(w, w.datasetGB, x);
        const double t_model =
            fast.executionSeconds(w, w.datasetGB, x);
        EXPECT_NEAR(t_model, t_sim, 0.10 * t_sim)
            << w.name << " at " << x << " cores";
    }
}

TEST_P(AnalyticalCross, SpeedupsTrackTheEventSimulator)
{
    const TaskSimulator detailed;
    const AnalyticalModel fast;
    const auto &w = workload();
    for (int x : {4, 12, 24}) {
        const double s_sim = detailed.speedup(w, w.datasetGB, x);
        const double s_model = fast.speedup(w, w.datasetGB, x);
        EXPECT_NEAR(s_model, s_sim, 0.12 * s_sim)
            << w.name << " at " << x << " cores";
    }
}

TEST_P(AnalyticalCross, MonotoneInCores)
{
    const AnalyticalModel fast;
    const auto &w = workload();
    // Communication-heavy workloads legitimately slow past their
    // sweet spot; others must be monotone.
    if (w.commSecondsPerWorker > 0.0)
        GTEST_SKIP() << "comm-bound workloads are not monotone";
    double prev = fast.executionSeconds(w, w.datasetGB, 1);
    for (int x : {2, 4, 8, 16, 24}) {
        const double t = fast.executionSeconds(w, w.datasetGB, x);
        EXPECT_LE(t, prev * 1.001) << x;
        prev = t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, AnalyticalCross, ::testing::Range(0, 22),
    [](const ::testing::TestParamInfo<int> &info) {
        return workloadLibrary()[static_cast<std::size_t>(info.param)]
            .name;
    });

TEST(Analytical, ValidatesArguments)
{
    const AnalyticalModel model;
    const auto &w = workloadLibrary().front();
    EXPECT_THROW(model.executionSeconds(w, 0.0, 1), FatalError);
    EXPECT_THROW(model.executionSeconds(w, 1.0, 0), FatalError);
    EXPECT_THROW(model.executionSeconds(w, 1.0, 25), FatalError);
}

TEST(Analytical, ValidationRejectsNaN)
{
    const AnalyticalModel model;
    const auto &w = workloadLibrary().front();
    EXPECT_THROW(model.executionSeconds(
                     w, std::numeric_limits<double>::quiet_NaN(), 1),
                 FatalError);
}

TEST(Analytical, QuadraticExtensionWorkloadTracks)
{
    const TaskSimulator detailed;
    const AnalyticalModel fast;
    const auto &qr = findExtensionWorkload("qr");
    for (int x : {1, 8, 24}) {
        const double t_sim =
            detailed.executionSeconds(qr, qr.datasetGB, x);
        const double t_model =
            fast.executionSeconds(qr, qr.datasetGB, x);
        EXPECT_NEAR(t_model, t_sim, 0.10 * t_sim);
    }
}

} // namespace
} // namespace amdahl::sim
