/**
 * @file
 * Unit tests for entitlement accounting (Figure 11's MAPE inputs).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/entitlement.hh"

namespace amdahl::core {
namespace {

FisherMarket
threeUserMarket()
{
    // The Section II-B example: three 12-core servers, equal
    // entitlements.
    FisherMarket market({12.0, 12.0, 12.0});
    market.addUser({"u1", 1.0, {{0, 0.9, 1.0}, {1, 0.9, 1.0}}});
    market.addUser({"u2", 1.0, {{1, 0.9, 1.0}, {2, 0.9, 1.0}}});
    market.addUser(
        {"u3", 1.0, {{0, 0.9, 1.0}, {1, 0.9, 1.0}, {2, 0.9, 1.0}}});
    return market;
}

TEST(Entitlement, EntitledCoresPerUser)
{
    const auto market = threeUserMarket();
    const auto entitled = entitledCoresPerUser(market);
    ASSERT_EQ(entitled.size(), 3u);
    for (double e : entitled)
        EXPECT_DOUBLE_EQ(e, 12.0);
}

TEST(Entitlement, AllocatedCoresPerUserSums)
{
    const auto market = threeUserMarket();
    const JobMatrix alloc = {{6.0, 4.0}, {4.0, 6.0}, {6.0, 4.0, 6.0}};
    const auto totals = allocatedCoresPerUser(market, alloc);
    EXPECT_DOUBLE_EQ(totals[0], 10.0);
    EXPECT_DOUBLE_EQ(totals[1], 10.0);
    EXPECT_DOUBLE_EQ(totals[2], 16.0);
}

TEST(Entitlement, IntegerOverload)
{
    const auto market = threeUserMarket();
    const std::vector<std::vector<int>> alloc = {
        {6, 4}, {4, 6}, {6, 4, 6}};
    const auto totals = allocatedCoresPerUser(market, alloc);
    EXPECT_DOUBLE_EQ(totals[2], 16.0);
}

TEST(Entitlement, MapeOfSectionTwoExample)
{
    // The Fair Share allocation (10, 10, 16) against entitlements
    // (12, 12, 12): per-user errors 2/12, 2/12, 4/12 -> mean 22.22%.
    const auto market = threeUserMarket();
    const std::vector<std::vector<int>> alloc = {
        {6, 4}, {4, 6}, {6, 4, 6}};
    EXPECT_NEAR(entitlementMape(market, alloc), 100.0 * (8.0 / 36.0),
                1e-9);
}

TEST(Entitlement, PerfectAllocationHasZeroMape)
{
    // The trading allocation of Section II-B: everyone gets 12.
    const auto market = threeUserMarket();
    const std::vector<std::vector<int>> alloc = {
        {8, 4}, {4, 8}, {4, 4, 4}};
    EXPECT_NEAR(entitlementMape(market, alloc), 0.0, 1e-12);
}

TEST(Entitlement, ShapeValidation)
{
    const auto market = threeUserMarket();
    EXPECT_THROW(allocatedCoresPerUser(market, JobMatrix{{1.0}}),
                 FatalError);
    const JobMatrix wrong_jobs = {{1.0}, {1.0, 2.0}, {1.0, 2.0, 3.0}};
    EXPECT_THROW(allocatedCoresPerUser(market, wrong_jobs), FatalError);
}

} // namespace
} // namespace amdahl::core
