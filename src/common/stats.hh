/**
 * @file
 * Statistical summaries used throughout the reproduction.
 *
 * Provides a single-pass online accumulator (Welford), sample-based
 * quantiles and boxplot summaries (used for Figure 8), and the geometric
 * mean (used when aggregating Karp-Flatt estimates across sampled
 * datasets, per Section IV-C of the paper).
 */

#ifndef AMDAHL_COMMON_STATS_HH
#define AMDAHL_COMMON_STATS_HH

#include <cstddef>
#include <limits>
#include <vector>

namespace amdahl {

/**
 * The raw accumulator fields of an OnlineStats, for durable snapshots.
 *
 * An accumulator rebuilt from its state continues exactly as the
 * original would, so statistics that span a crash/recovery boundary
 * match an uninterrupted run bit-for-bit.
 */
struct OnlineStatsState
{
    std::size_t n = 0;
    double m = 0.0;
    double m2 = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
};

/**
 * Online mean/variance accumulator (Welford's algorithm).
 *
 * Numerically stable for long streams; O(1) space.
 */
class OnlineStats
{
  public:
    OnlineStats() = default;

    /** Resume from a saved state (any field values are accepted). */
    explicit OnlineStats(const OnlineStatsState &state) : s_(state) {}

    /** Add one observation. */
    void add(double x);

    /** @return Number of observations added. */
    std::size_t count() const { return s_.n; }

    /** @return Sample mean; 0 when empty. */
    double mean() const { return s_.n == 0 ? 0.0 : s_.m; }

    /** @return Population variance (divide by n); 0 when n < 1. */
    double variance() const;

    /** @return sqrt of the population variance. */
    double stddev() const;

    /** @return Smallest observation; +inf when empty. */
    double min() const { return s_.lo; }

    /** @return Largest observation; -inf when empty. */
    double max() const { return s_.hi; }

    /** @return The raw accumulator state (for snapshots). */
    const OnlineStatsState &state() const { return s_; }

  private:
    OnlineStatsState s_;
};

/** Five-number summary for boxplots (Figure 8). */
struct BoxplotSummary
{
    double min = 0.0;
    double q1 = 0.0;     //!< 25th percentile
    double median = 0.0; //!< 50th percentile
    double q3 = 0.0;     //!< 75th percentile
    double max = 0.0;
};

/** @return Arithmetic mean of the samples. Requires non-empty input. */
double mean(const std::vector<double> &xs);

/** @return Population variance of the samples. Requires non-empty input. */
double variance(const std::vector<double> &xs);

/**
 * @return Geometric mean of the samples.
 * Requires non-empty input with strictly positive values.
 */
double geometricMean(const std::vector<double> &xs);

/** @return The sample median (type-7 quantile at 0.5). Requires
 *  non-empty input. */
double median(const std::vector<double> &xs);

/**
 * Linear-interpolation sample quantile (type-7, the R/NumPy default).
 *
 * @param xs Samples (any order; copied and sorted internally).
 * @param q  Quantile in [0, 1].
 * @return The q-th quantile. Requires non-empty input.
 */
double quantile(std::vector<double> xs, double q);

/** @return The five-number summary of the samples. Requires non-empty. */
BoxplotSummary boxplot(const std::vector<double> &xs);

/**
 * Mean Absolute Percentage Error, in percent (Figure 11).
 *
 * @param actual    Observed values (the allocations).
 * @param reference Reference values (the entitlements); each must be
 *                  nonzero.
 * @return 100/n * sum |actual - reference| / |reference|.
 */
double meanAbsolutePercentageError(const std::vector<double> &actual,
                                   const std::vector<double> &reference);

} // namespace amdahl

#endif // AMDAHL_COMMON_STATS_HH
