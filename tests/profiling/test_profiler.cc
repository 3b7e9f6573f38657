/**
 * @file
 * Unit tests for the grid profiler.
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/logging.hh"
#include "profiling/profiler.hh"
#include "sim/workload_library.hh"

namespace amdahl::profiling {
namespace {

TEST(Profiler, DefaultLadderIncludesOneAndMax)
{
    const Profiler profiler((sim::TaskSimulator()));
    const auto &cores = profiler.coreCounts();
    ASSERT_FALSE(cores.empty());
    EXPECT_EQ(cores.front(), 1);
    EXPECT_EQ(cores.back(), profiler.simulator().server().cores());
}

TEST(Profiler, CustomLadderGetsOneInserted)
{
    const Profiler profiler(sim::TaskSimulator(), {4, 8});
    const auto &cores = profiler.coreCounts();
    EXPECT_EQ(cores, (std::vector<int>{1, 4, 8}));
}

TEST(Profiler, LadderIsSortedAndDeduplicated)
{
    const Profiler profiler(sim::TaskSimulator(), {8, 4, 8, 1});
    EXPECT_EQ(profiler.coreCounts(), (std::vector<int>{1, 4, 8}));
}

TEST(Profiler, RejectsInvalidCoreCounts)
{
    EXPECT_THROW(Profiler(sim::TaskSimulator(), {0}), FatalError);
    EXPECT_THROW(Profiler(sim::TaskSimulator(), {25}), FatalError);
}

TEST(Profiler, ProfilesFullGrid)
{
    const Profiler profiler(sim::TaskSimulator(), {2, 4});
    const auto &w = sim::findWorkload("kmeans");
    const auto profile = profiler.profile(w, {0.1, 0.2});
    EXPECT_EQ(profile.points.size(), 6u); // 3 core counts x 2 datasets.
    EXPECT_EQ(profile.workloadName, "kmeans");
    EXPECT_GT(profile.secondsAt(0.1, 1), 0.0);
    EXPECT_GT(profile.secondsAt(0.2, 4), 0.0);
}

TEST(Profiler, SpeedupsAreRelativeToOneCore)
{
    const Profiler profiler(sim::TaskSimulator(), {2, 8});
    const auto &w = sim::findWorkload("swaptions");
    const auto profile = profiler.profile(w, {w.datasetGB});
    const auto speedups = profile.speedups(w.datasetGB);
    ASSERT_EQ(speedups.size(), 2u);
    EXPECT_GT(speedups[0], 1.5);
    EXPECT_GT(speedups[1], speedups[0]);
}

TEST(Profiler, MultiCoreCountsExcludeOne)
{
    const Profiler profiler(sim::TaskSimulator(), {2, 4});
    const auto &w = sim::findWorkload("vips");
    const auto profile = profiler.profile(w, {w.datasetGB});
    EXPECT_EQ(profile.multiCoreCounts(), (std::vector<int>{2, 4}));
}

TEST(Profiler, MissingGridCellIsFatal)
{
    const Profiler profiler(sim::TaskSimulator(), {2});
    const auto &w = sim::findWorkload("vips");
    const auto profile = profiler.profile(w, {1.0});
    EXPECT_THROW(profile.secondsAt(2.0, 2), FatalError);
    EXPECT_THROW(profile.secondsAt(1.0, 16), FatalError);
}

TEST(Profiler, RejectsEmptyOrInvalidDatasets)
{
    const Profiler profiler((sim::TaskSimulator()));
    const auto &w = sim::findWorkload("vips");
    EXPECT_THROW(profiler.profile(w, {}), FatalError);
    EXPECT_THROW(profiler.profile(w, {-1.0}), FatalError);
}

TEST(Profiler, ValidationRejectsNaN)
{
    const Profiler profiler((sim::TaskSimulator()));
    const auto &w = sim::findWorkload("vips");
    EXPECT_THROW(
        profiler.profile(w, {1.0, std::numeric_limits<double>::quiet_NaN()}),
        FatalError);
}

TEST(Profiler, DatasetsAreSortedInProfile)
{
    const Profiler profiler(sim::TaskSimulator(), {2});
    const auto &w = sim::findWorkload("vips");
    const auto profile = profiler.profile(w, {2.0, 0.5, 1.0});
    EXPECT_EQ(profile.datasetsGB,
              (std::vector<double>{0.5, 1.0, 2.0}));
}

} // namespace
} // namespace amdahl::profiling
