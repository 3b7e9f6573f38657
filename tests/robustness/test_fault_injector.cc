/**
 * @file
 * Unit tests for the deterministic fault-injection schedule.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/logging.hh"
#include "robustness/fault_injector.hh"

namespace amdahl::robustness {
namespace {

FaultOptions
churnOptions()
{
    FaultOptions opts;
    opts.enabled = true;
    opts.crashRatePerServerEpoch = 0.05;
    opts.downEpochs = 3;
    return opts;
}

TEST(FaultInjector, DisabledMeansEmptySchedule)
{
    FaultOptions opts = churnOptions();
    opts.enabled = false;
    const FaultInjector injector(opts, 8, 100);
    EXPECT_TRUE(injector.schedule().empty());
    EXPECT_TRUE(injector.crashesDuring(50).empty());
}

TEST(FaultInjector, ZeroRateMeansEmptySchedule)
{
    FaultOptions opts = churnOptions();
    opts.crashRatePerServerEpoch = 0.0;
    const FaultInjector injector(opts, 8, 100);
    EXPECT_TRUE(injector.schedule().empty());
}

TEST(FaultInjector, ScheduleIsDeterministic)
{
    const FaultInjector a(churnOptions(), 8, 200);
    const FaultInjector b(churnOptions(), 8, 200);
    ASSERT_FALSE(a.schedule().empty());
    ASSERT_EQ(a.schedule().size(), b.schedule().size());
    for (std::size_t i = 0; i < a.schedule().size(); ++i) {
        EXPECT_EQ(a.schedule()[i].server, b.schedule()[i].server);
        EXPECT_EQ(a.schedule()[i].crashEpoch,
                  b.schedule()[i].crashEpoch);
        EXPECT_EQ(a.schedule()[i].recoverEpoch,
                  b.schedule()[i].recoverEpoch);
    }
}

TEST(FaultInjector, SeedChangesSchedule)
{
    FaultOptions other = churnOptions();
    other.seed = 12345;
    const FaultInjector a(churnOptions(), 8, 200);
    const FaultInjector b(other, 8, 200);
    ASSERT_FALSE(a.schedule().empty());
    ASSERT_FALSE(b.schedule().empty());
    bool differs = a.schedule().size() != b.schedule().size();
    for (std::size_t i = 0;
         !differs && i < a.schedule().size(); ++i) {
        differs = a.schedule()[i].server != b.schedule()[i].server ||
                  a.schedule()[i].crashEpoch !=
                      b.schedule()[i].crashEpoch;
    }
    EXPECT_TRUE(differs);
}

TEST(FaultInjector, IntervalsAreWellFormed)
{
    const int epochs = 300;
    const std::size_t servers = 6;
    const FaultInjector injector(churnOptions(), servers, epochs);
    ASSERT_FALSE(injector.schedule().empty());
    std::vector<int> down_until(servers, 0);
    for (const auto &event : injector.schedule()) {
        EXPECT_LT(event.server, servers);
        EXPECT_GE(event.crashEpoch, 0);
        EXPECT_LT(event.crashEpoch, epochs);
        EXPECT_EQ(event.recoverEpoch,
                  event.crashEpoch + churnOptions().downEpochs + 1);
        // A down server cannot crash again.
        EXPECT_GE(event.crashEpoch, down_until[event.server]);
        down_until[event.server] = event.recoverEpoch;
    }
}

TEST(FaultInjector, CrashAndRecoveryQueriesMatchSchedule)
{
    const FaultInjector injector(churnOptions(), 6, 300);
    std::size_t crashes = 0;
    std::size_t recoveries = 0;
    for (int epoch = 0; epoch < 320; ++epoch) {
        for (std::size_t j : injector.crashesDuring(epoch)) {
            (void)j;
            ++crashes;
        }
        for (std::size_t j : injector.recoveriesAt(epoch)) {
            (void)j;
            ++recoveries;
        }
    }
    EXPECT_EQ(crashes, injector.schedule().size());
    EXPECT_EQ(recoveries, injector.schedule().size());
}

TEST(FaultInjector, ScriptedCrashesAreHonoredVerbatim)
{
    FaultOptions opts;
    opts.enabled = true;
    opts.crashRatePerServerEpoch = 0.9; // ignored: script wins
    opts.scriptedCrashes = {{2, 5, 9}, {0, 1, 3}};
    const FaultInjector injector(opts, 4, 20);
    ASSERT_EQ(injector.schedule().size(), 2u);
    // Sorted by crash epoch.
    EXPECT_EQ(injector.schedule()[0].server, 0u);
    EXPECT_EQ(injector.schedule()[1].server, 2u);
    EXPECT_EQ(injector.crashesDuring(5), std::vector<std::size_t>{2});
    EXPECT_EQ(injector.recoveriesAt(9), std::vector<std::size_t>{2});
    EXPECT_TRUE(injector.crashesDuring(6).empty());
    EXPECT_TRUE(injector.recoveriesAt(6).empty());
}

TEST(FaultInjector, RejectsOverlappingScript)
{
    FaultOptions opts;
    opts.enabled = true;
    opts.scriptedCrashes = {{1, 2, 8}, {1, 5, 10}};
    EXPECT_THROW(FaultInjector(opts, 4, 20), FatalError);
}

TEST(FaultInjector, RejectsScriptNamingMissingServer)
{
    FaultOptions opts;
    opts.enabled = true;
    opts.scriptedCrashes = {{7, 2, 5}};
    EXPECT_THROW(FaultInjector(opts, 4, 20), FatalError);
}

TEST(FaultInjector, ValidatesOptionRanges)
{
    auto expectFatal = [](auto mutate) {
        FaultOptions opts;
        mutate(opts);
        EXPECT_THROW(validateFaultOptions(opts), FatalError);
    };
    expectFatal([](FaultOptions &o) {
        o.crashRatePerServerEpoch = -0.1;
    });
    expectFatal([](FaultOptions &o) {
        o.crashRatePerServerEpoch = 1.5;
    });
    expectFatal([](FaultOptions &o) { o.downEpochs = 0; });
    expectFatal([](FaultOptions &o) { o.checkpointEpochs = 0; });
    expectFatal([](FaultOptions &o) { o.bidLossRate = -0.2; });
    expectFatal([](FaultOptions &o) { o.bidLossRate = 1.01; });
    expectFatal([](FaultOptions &o) {
        o.scriptedCrashes = {{0, 5, 5}};
    });
    validateFaultOptions(FaultOptions{}); // defaults are valid
}

TEST(FaultInjector, ValidationRejectsNaN)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double FaultOptions::*field :
         {&FaultOptions::crashRatePerServerEpoch,
          &FaultOptions::bidLossRate}) {
        FaultOptions opts;
        opts.*field = nan;
        EXPECT_THROW(validateFaultOptions(opts), FatalError);
    }
}

TEST(FaultInjector, BidSeedsAreDeterministicPerEpoch)
{
    const FaultInjector a(churnOptions(), 4, 50);
    const FaultInjector b(churnOptions(), 4, 50);
    EXPECT_EQ(a.bidSeed(7), b.bidSeed(7));
    EXPECT_NE(a.bidSeed(7), a.bidSeed(8));
}

TEST(FaultInjector, NeedsAtLeastOneServer)
{
    EXPECT_THROW(FaultInjector(churnOptions(), 0, 10), FatalError);
}

} // namespace
} // namespace amdahl::robustness
