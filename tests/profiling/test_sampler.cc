/**
 * @file
 * Unit tests for dataset sampling plans.
 */

#include <gtest/gtest.h>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "profiling/sampler.hh"
#include "sim/workload_library.hh"

namespace amdahl::profiling {
namespace {

TEST(Sampler, SparkLadderForLargeDataset)
{
    // A 24 GB Spark input samples the paper's 1-6 GB ladder.
    const auto plan = planSamples(sim::findWorkload("correlation"));
    EXPECT_EQ(plan.sampleSizesGB.size(), 6u);
    EXPECT_DOUBLE_EQ(plan.sampleSizesGB.front(), 1.0);
    EXPECT_DOUBLE_EQ(plan.sampleSizesGB.back(), 6.0);
    EXPECT_DOUBLE_EQ(plan.fullSizeGB, 24.0);
}

TEST(Sampler, LadderClippedBelowDatasetSize)
{
    // A 5.3 GB input keeps only ladder entries below 5.3 GB.
    const auto plan = planSamples(sim::findWorkload("pagerank"));
    for (double gb : plan.sampleSizesGB)
        EXPECT_LT(gb, 5.3);
    EXPECT_GE(plan.sampleSizesGB.size(), 3u);
}

TEST(Sampler, SmallDatasetFallsBackToFractions)
{
    // kmeans's 327 MB input cannot use the 1-6 GB ladder.
    const auto &kmeans = sim::findWorkload("kmeans");
    const auto plan = planSamples(kmeans);
    EXPECT_GE(plan.sampleSizesGB.size(), 1u);
    for (double gb : plan.sampleSizesGB) {
        EXPECT_GT(gb, 0.0);
        EXPECT_LE(gb, kmeans.datasetGB);
    }
}

TEST(Sampler, MinimumParallelismFootnoteRespected)
{
    // Samples must produce at least one task per allocatable core of
    // the Table II server, 24 (paper footnote 1). fpgrowth's 1.4 GB
    // input falls back to fractions, and its 0.21-0.63 GB steps are
    // raised to 24 blocks (and merged).
    const auto &fp = sim::findWorkload("fpgrowth");
    const auto plan = planSamples(fp);
    ASSERT_EQ(plan.sampleSizesGB.size(), 3u);
    for (double gb : plan.sampleSizesGB)
        EXPECT_GE(gb / fp.blockSizeGB, 23.999);
    EXPECT_DOUBLE_EQ(plan.sampleSizesGB.front(), 24 * fp.blockSizeGB);
}

TEST(Sampler, ParsecUsesSimlargeFractions)
{
    const auto &ferret = sim::findWorkload("ferret");
    const auto plan = planSamples(ferret);
    EXPECT_EQ(plan.sampleSizesGB.size(), 4u);
    for (double gb : plan.sampleSizesGB)
        EXPECT_LT(gb, ferret.datasetGB);
    EXPECT_DOUBLE_EQ(plan.sampleSizesGB.front(),
                     0.2 * ferret.datasetGB);
}

TEST(Sampler, SamplesAreAscending)
{
    for (const auto &w : sim::workloadLibrary()) {
        const auto plan = planSamples(w);
        for (std::size_t i = 1; i < plan.sampleSizesGB.size(); ++i) {
            EXPECT_GT(plan.sampleSizesGB[i],
                      plan.sampleSizesGB[i - 1] - 1e-12)
                << w.name;
        }
    }
}

TEST(Sampler, EveryLibraryWorkloadGetsAPlan)
{
    for (const auto &w : sim::workloadLibrary()) {
        const auto plan = planSamples(w);
        EXPECT_FALSE(plan.sampleSizesGB.empty()) << w.name;
        EXPECT_DOUBLE_EQ(plan.fullSizeGB, w.datasetGB) << w.name;
    }
}

TEST(Sampler, LibraryPlansMatchPinnedBytes)
{
    // CRC-32 of every library workload's plan, recorded from an earlier
    // build: the Spark ladder, the fallback and PARSEC fractions and
    // the 24-task footnote are constants, and this pin holds them.
    Crc32 digest;
    for (const auto &w : sim::workloadLibrary()) {
        const auto plan = planSamples(w);
        digest.update(w.name);
        digest.updateF64(plan.fullSizeGB);
        digest.updateU64(plan.sampleSizesGB.size());
        for (double gb : plan.sampleSizesGB)
            digest.updateF64(gb);
    }
    EXPECT_EQ(digest.value(), 0xe453f84cu)
        << "crc 0x" << std::hex << digest.value();
}

} // namespace
} // namespace amdahl::profiling
