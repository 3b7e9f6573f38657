/**
 * @file
 * The in-process price gather against the dense block fold.
 *
 * gatherPrices streams each server's CSR entries and closes a block
 * partial whenever the entry's price block (BidKernel::entryBlock)
 * changes. The sharded exchange's coordinator computes the same
 * prices another way: accumulateBlockPartials fills a dense
 * block x server table user-major, and foldPriceTable left-folds it
 * over every block, zeros included. The file header of
 * core/bidding_kernel.hh argues the two agree bit for bit; these
 * tests pin it on seeded multi-block markets — rows of 1-9 jobs,
 * servers some blocks never touch, one server no block touches, a
 * partial last block, users with two jobs on one server — for a
 * freshly built kernel and for kernels served by a KernelCache, whose
 * entry blocks were built once and then reused.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/bidding_kernel.hh"
#include "core/market.hh"

namespace amdahl::core {
namespace {

/**
 * @p users users over @p servers servers, the last one idle. Users of
 * price block b bid only on a window of servers that moves with b, so
 * most (block, server) cells are empty; @p valueSeed moves budgets,
 * fractions and weights without changing that structure.
 */
FisherMarket
blockedMarket(std::size_t users, std::size_t servers,
              std::uint64_t structureSeed, std::uint64_t valueSeed)
{
    Rng shape(structureSeed);
    Rng value(valueSeed);
    FisherMarket market(std::vector<double>(servers, 8.0));
    constexpr std::int64_t kWindow = 5;
    for (std::size_t i = 0; i < users; ++i) {
        const std::size_t block = i / detail::kPriceBlockUsers;
        MarketUser user;
        user.name = "u" + std::to_string(i);
        user.budget = value.uniform(0.5, 2.0);
        const auto jobs = shape.uniformInt(1, 9);
        for (std::int64_t k = 0; k < jobs; ++k) {
            JobSpec job;
            const auto offset =
                static_cast<std::size_t>(shape.uniformInt(0, kWindow - 1));
            job.server = (3 * block + offset) % (servers - 1);
            job.parallelFraction = value.uniform(0.05, 0.999);
            job.weight = value.uniform(0.5, 2.0);
            user.jobs.push_back(job);
        }
        market.addUser(std::move(user));
    }
    return market;
}

/** Random positive bids, spread over many binades so that any change
 *  in the order of additions shows in the low bits. */
void
randomizeBids(detail::BidKernel &kernel, std::uint64_t seed)
{
    Rng rng(seed);
    for (double &b : kernel.bids) {
        const double mantissa = rng.uniform(0.01, 1.0);
        b = std::ldexp(mantissa,
                       static_cast<int>(rng.uniformInt(0, 20)));
    }
}

/** gatherPrices must equal the dense table fold bit for bit. */
void
expectGatherMatchesBlockFold(const detail::BidKernel &kernel,
                             const std::string &what)
{
    std::vector<double> gathered(kernel.serverCount, -1.0);
    detail::gatherPrices(kernel, gathered);

    const std::size_t blocks = detail::priceBlockCount(kernel.userCount);
    std::vector<double> table(blocks * kernel.serverCount, -1.0);
    detail::accumulateBlockPartials(kernel, 0, blocks, table);
    std::vector<double> folded(kernel.serverCount, -1.0);
    detail::foldPriceTable(table, blocks, kernel, folded);

    for (std::size_t j = 0; j < kernel.serverCount; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(gathered[j]),
                  std::bit_cast<std::uint64_t>(folded[j]))
            << what << ": server " << j << " gathered " << gathered[j]
            << " folded " << folded[j];
    }
}

TEST(PriceGather, MatchesTheDenseBlockFold)
{
    // Whole blocks, a partial last block, and a market inside one
    // block, each over several seeds.
    for (const std::size_t users : {std::size_t{7}, std::size_t{160},
                                    std::size_t{7 * 32 + 11}}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const auto market = blockedMarket(users, 23, seed, seed + 100);
            auto kernel = detail::buildKernel(market);
            randomizeBids(kernel, seed + 200);
            expectGatherMatchesBlockFold(
                kernel, "users=" + std::to_string(users) +
                            " seed=" + std::to_string(seed));
        }
    }
}

TEST(PriceGather, MarketHasEmptyCellsAndAnIdleServer)
{
    // The properties the test above relies on, checked on its inputs.
    const auto market = blockedMarket(7 * 32 + 11, 23, 3, 103);
    const auto kernel = detail::buildKernel(market);
    const std::size_t blocks = detail::priceBlockCount(kernel.userCount);
    ASSERT_EQ(blocks, 8u);
    ASSERT_NE(kernel.userCount % detail::kPriceBlockUsers, 0u);
    const std::size_t idle = kernel.serverCount - 1;
    EXPECT_EQ(kernel.serverJobOffset[idle],
              kernel.serverJobOffset[idle + 1]);
    std::vector<double> table(blocks * kernel.serverCount, 0.0);
    auto ones = kernel;
    ones.bids.assign(ones.jobCount, 1.0);
    detail::accumulateBlockPartials(ones, 0, blocks, table);
    std::size_t empty = 0;
    for (std::size_t j = 0; j + 1 < kernel.serverCount; ++j) {
        for (std::size_t b = 0; b < blocks; ++b)
            empty += table[b * kernel.serverCount + j] == 0.0 ? 1 : 0;
    }
    EXPECT_GT(empty, blocks * (kernel.serverCount - 1) / 2);
}

TEST(PriceGather, KernelCacheReuseKeepsTheGatherExact)
{
    // The first solve builds the kernel, and with it the entry
    // blocks; a market with the same structure but new values is
    // served by patching rows of that kernel, so its entry blocks are
    // the ones built for the first market. A new structure rebuilds.
    KernelCache cache;
    detail::BidKernel local;
    const std::size_t users = 5 * 32 + 19;

    auto &built = detail::acquireKernel(blockedMarket(users, 17, 9, 1),
                                        &cache, local);
    randomizeBids(built, 11);
    expectGatherMatchesBlockFold(built, "built");
    EXPECT_EQ(cache.rebuilds, 1u);

    auto &reused = detail::acquireKernel(blockedMarket(users, 17, 9, 2),
                                         &cache, local);
    EXPECT_EQ(cache.reuses, 1u);
    EXPECT_GT(cache.patchedUsers, 0u);
    randomizeBids(reused, 12);
    expectGatherMatchesBlockFold(reused, "reused");
    const auto fresh = detail::buildKernel(blockedMarket(users, 17, 9, 2));
    EXPECT_EQ(reused.entryBlock, fresh.entryBlock);
    EXPECT_EQ(reused.serverJobIds, fresh.serverJobIds);

    auto &rebuilt = detail::acquireKernel(
        blockedMarket(users + 40, 17, 10, 3), &cache, local);
    EXPECT_EQ(cache.rebuilds, 2u);
    randomizeBids(rebuilt, 13);
    expectGatherMatchesBlockFold(rebuilt, "rebuilt");
}

} // namespace
} // namespace amdahl::core
