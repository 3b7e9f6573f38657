/**
 * @file
 * Unit tests for the two-dimensional performance predictor
 * (Section IV-B/C).
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "profiling/predictor.hh"
#include "profiling/profiler.hh"
#include "profiling/sampler.hh"
#include "sim/workload_library.hh"

namespace amdahl::profiling {
namespace {

PerformancePredictor
fitFor(const char *name)
{
    const auto &w = sim::findWorkload(name);
    const Profiler profiler((sim::TaskSimulator()));
    const auto plan = planSamples(w);
    return PerformancePredictor::fit(
        profiler.profile(w, plan.sampleSizesGB));
}

TEST(Predictor, LinearModelsAreGoodFits)
{
    // Figure 4: execution time scales linearly with dataset size; the
    // per-core-count linear models should have R^2 near 1.
    const auto &w = sim::findWorkload("correlation");
    const Profiler profiler((sim::TaskSimulator()));
    const auto plan = planSamples(w);
    const auto profile = profiler.profile(w, plan.sampleSizesGB);
    const auto predictor = PerformancePredictor::fit(profile);
    for (int cores : predictor.modeledCoreCounts())
        EXPECT_GT(predictor.modelForCores(cores).r2, 0.99) << cores;
}

TEST(Predictor, FractionWithinLibraryRange)
{
    for (const auto &w : sim::workloadLibrary()) {
        const Profiler profiler((sim::TaskSimulator()));
        const auto plan = planSamples(w);
        const auto predictor = PerformancePredictor::fit(
            profiler.profile(w, plan.sampleSizesGB));
        EXPECT_GT(predictor.parallelFraction(), 0.3) << w.name;
        EXPECT_LE(predictor.parallelFraction(), 1.0) << w.name;
    }
}

TEST(Predictor, PredictsFullDatasetTimesAccurately)
{
    // Figure 7: predictions on the full dataset across allocations.
    // Clean workloads should land within ~15% (the paper reports
    // 5-15% average error).
    const auto &w = sim::findWorkload("decision");
    const auto predictor = fitFor("decision");
    sim::TaskSimulator sim;
    for (int x : {1, 2, 4, 8, 16, 24}) {
        const double predicted =
            predictor.predictSeconds(w.datasetGB, x);
        const double measured =
            sim.executionSeconds(w, w.datasetGB, x);
        EXPECT_NEAR(predicted, measured, 0.15 * measured)
            << x << " cores";
    }
}

TEST(Predictor, EvaluateReportsErrors)
{
    const auto &w = sim::findWorkload("decision");
    const auto predictor = fitFor("decision");
    const sim::TaskSimulator sim;
    const auto report = evaluatePredictor(predictor, sim, w,
                                          w.datasetGB, {2, 4, 8, 16});
    ASSERT_EQ(report.errorPercent.size(), 4u);
    EXPECT_LT(report.meanErrorPercent, 20.0);
    EXPECT_GE(report.errorSummary.max, report.errorSummary.median);
    for (double err : report.errorPercent)
        EXPECT_GE(err, 0.0);
}

TEST(Predictor, CannealHasLargerErrorThanCleanWorkloads)
{
    // Figure 8: cache/memory-intensive canneal is poorly modeled from
    // sampled datasets.
    const sim::TaskSimulator sim;
    const auto &canneal = sim::findWorkload("canneal");
    const auto &swaptions = sim::findWorkload("swaptions");
    const auto canneal_report =
        evaluatePredictor(fitFor("canneal"), sim, canneal,
                          canneal.datasetGB, {4, 8, 16, 24});
    const auto swaptions_report =
        evaluatePredictor(fitFor("swaptions"), sim, swaptions,
                          swaptions.datasetGB, {4, 8, 16, 24});
    EXPECT_GT(canneal_report.meanErrorPercent,
              swaptions_report.meanErrorPercent);
}

TEST(Predictor, DefaultPipelineStaysLinear)
{
    // The paper's evaluated pipeline uses linear models even for
    // quadratic workloads; model selection must be opt-in.
    const auto &qr = sim::findExtensionWorkload("qr");
    const Profiler profiler((sim::TaskSimulator()));
    const auto plan = planSamples(qr);
    const auto predictor = PerformancePredictor::fit(
        profiler.profile(qr, plan.sampleSizesGB));
    EXPECT_EQ(predictor.scalingDegree(), 1u);
}

TEST(Predictor, QuadraticSelectionEngagesForQr)
{
    const auto &qr = sim::findExtensionWorkload("qr");
    const Profiler profiler((sim::TaskSimulator()));
    const auto plan = planSamples(qr);
    const auto profile = profiler.profile(qr, plan.sampleSizesGB);

    PredictorOptions opts;
    opts.allowQuadratic = true;
    const auto quad = PerformancePredictor::fit(profile, opts);
    EXPECT_EQ(quad.scalingDegree(), 2u);

    // And it slashes the full-dataset prediction error.
    const sim::TaskSimulator sim;
    const auto lin_report = evaluatePredictor(
        PerformancePredictor::fit(profile), sim, qr, qr.datasetGB,
        {4, 8, 16});
    const auto quad_report =
        evaluatePredictor(quad, sim, qr, qr.datasetGB, {4, 8, 16});
    EXPECT_LT(quad_report.meanErrorPercent,
              0.5 * lin_report.meanErrorPercent);
}

TEST(Predictor, QuadraticSelectionLeavesLinearWorkloadsAlone)
{
    const auto &w = sim::findWorkload("correlation");
    const Profiler profiler((sim::TaskSimulator()));
    const auto plan = planSamples(w);
    PredictorOptions opts;
    opts.allowQuadratic = true;
    const auto predictor = PerformancePredictor::fit(
        profiler.profile(w, plan.sampleSizesGB), opts);
    EXPECT_EQ(predictor.scalingDegree(), 1u);
}

/** CRC-32 of a fitted predictor: its fraction, degree, every linear
 *  model and its predictions over a (dataset, cores) grid. */
std::uint32_t
predictorDigest(const PerformancePredictor &predictor, double fullGB)
{
    Crc32 digest;
    digest.updateF64(predictor.parallelFraction());
    digest.updateU64(predictor.scalingDegree());
    for (int cores : predictor.modeledCoreCounts()) {
        const auto &model = predictor.modelForCores(cores);
        digest.updateU32(static_cast<std::uint32_t>(cores));
        digest.updateF64(model.intercept);
        digest.updateF64(model.slope);
        digest.updateF64(model.r2);
    }
    for (double share : {0.1, 0.5, 1.0}) {
        for (int cores : {1, 4, 24})
            digest.updateF64(predictor.predictSeconds(share * fullGB, cores));
    }
    return digest.value();
}

TEST(Predictor, CoefficientsMatchPinnedBytes)
{
    // Recorded from an earlier build: the R^2 below which a quadratic
    // model is tried is a constant, and these pins hold it (and the
    // fits) in place, for a linear workload and for QR with quadratic
    // selection on.
    const Profiler profiler((sim::TaskSimulator()));
    const auto &w = sim::findWorkload("correlation");
    const auto linear = PerformancePredictor::fit(
        profiler.profile(w, planSamples(w).sampleSizesGB));
    EXPECT_EQ(predictorDigest(linear, w.datasetGB), 0x04cbef2au)
        << "correlation crc 0x" << std::hex
        << predictorDigest(linear, w.datasetGB);

    const auto &qr = sim::findExtensionWorkload("qr");
    PredictorOptions opts;
    opts.allowQuadratic = true;
    const auto quad = PerformancePredictor::fit(
        profiler.profile(qr, planSamples(qr).sampleSizesGB), opts);
    ASSERT_EQ(quad.scalingDegree(), 2u);
    EXPECT_EQ(predictorDigest(quad, qr.datasetGB), 0xc1c704efu)
        << "qr crc 0x" << std::hex << predictorDigest(quad, qr.datasetGB);
}

TEST(Predictor, NeedsAtLeastTwoDatasets)
{
    const auto &w = sim::findWorkload("vips");
    const Profiler profiler((sim::TaskSimulator()));
    const auto profile = profiler.profile(w, {1.0});
    EXPECT_THROW(PerformancePredictor::fit(profile), FatalError);
}

TEST(Predictor, ValidatesPredictArguments)
{
    const auto predictor = fitFor("vips");
    EXPECT_THROW(predictor.predictSeconds(0.0, 4), FatalError);
    EXPECT_THROW(predictor.predictSeconds(1.0, 0), FatalError);
    EXPECT_THROW(predictor.modelForCores(999), FatalError);
}

TEST(Predictor, ValidationRejectsNaN)
{
    const auto predictor = fitFor("vips");
    EXPECT_THROW(predictor.predictSeconds(
                     std::numeric_limits<double>::quiet_NaN(), 4),
                 FatalError);
}

TEST(Predictor, MorCoresPredictsFasterExecution)
{
    const auto predictor = fitFor("ferret");
    const double t4 = predictor.predictSeconds(2.0, 4);
    const double t16 = predictor.predictSeconds(2.0, 16);
    EXPECT_GT(t4, t16);
}

TEST(Predictor, LargerDatasetPredictsSlowerExecution)
{
    const auto predictor = fitFor("correlation");
    EXPECT_GT(predictor.predictSeconds(24.0, 8),
              predictor.predictSeconds(6.0, 8));
}

} // namespace
} // namespace amdahl::profiling
