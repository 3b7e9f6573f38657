#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace amdahl {

void
OnlineStats::add(double x)
{
    ++s_.n;
    const double delta = x - s_.m;
    s_.m += delta / static_cast<double>(s_.n);
    s_.m2 += delta * (x - s_.m);
    s_.lo = std::min(s_.lo, x);
    s_.hi = std::max(s_.hi, x);
}

double
OnlineStats::variance() const
{
    return s_.n < 1 ? 0.0 : s_.m2 / static_cast<double>(s_.n);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        fatal("mean of empty sample");
    OnlineStats s;
    for (double x : xs)
        s.add(x);
    return s.mean();
}

double
variance(const std::vector<double> &xs)
{
    if (xs.empty())
        fatal("variance of empty sample");
    OnlineStats s;
    for (double x : xs)
        s.add(x);
    return s.variance();
}

double
geometricMean(const std::vector<double> &xs)
{
    if (xs.empty())
        fatal("geometric mean of empty sample");
    double log_sum = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            fatal("geometric mean requires positive samples, got ", x);
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
median(const std::vector<double> &xs)
{
    return quantile(xs, 0.5);
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        fatal("quantile of empty sample");
    if (q < 0.0 || q > 1.0)
        fatal("quantile ", q, " outside [0, 1]");
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto below = static_cast<std::size_t>(std::floor(pos));
    const auto above = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - std::floor(pos);
    return xs[below] + frac * (xs[above] - xs[below]);
}

BoxplotSummary
boxplot(const std::vector<double> &xs)
{
    if (xs.empty())
        fatal("boxplot of empty sample");
    std::vector<double> sorted(xs);
    std::sort(sorted.begin(), sorted.end());
    BoxplotSummary b;
    b.min = sorted.front();
    b.max = sorted.back();
    b.q1 = quantile(sorted, 0.25);
    b.median = quantile(sorted, 0.50);
    b.q3 = quantile(sorted, 0.75);
    return b;
}

double
meanAbsolutePercentageError(const std::vector<double> &actual,
                            const std::vector<double> &reference)
{
    if (actual.size() != reference.size())
        fatal("MAPE: size mismatch ", actual.size(), " vs ",
              reference.size());
    if (actual.empty())
        fatal("MAPE of empty sample");
    double sum = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (reference[i] == 0.0)
            fatal("MAPE: zero reference at index ", i);
        sum += std::abs(actual[i] - reference[i]) / std::abs(reference[i]);
    }
    return 100.0 * sum / static_cast<double>(actual.size());
}

} // namespace amdahl
