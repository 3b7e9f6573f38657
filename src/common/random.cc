#include "random.hh"

#include <cmath>
#include <numbers>

#include "logging.hh"

namespace amdahl {

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &word : words)
        word = sm.next();
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(words[1] * 5, 7) * 9;
    const std::uint64_t t = words[1] << 17;

    words[2] ^= words[0];
    words[3] ^= words[1];
    words[1] ^= words[2];
    words[0] ^= words[3];
    words[2] ^= t;
    words[3] = rotl(words[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high-order bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    if (lo > hi)
        fatal("uniform(lo, hi): lo ", lo, " > hi ", hi);
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        fatal("uniformInt(lo, hi): lo ", lo, " > hi ", hi);
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t draw;
    do {
        draw = next();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % span);
}

double
Rng::gaussian()
{
    // Box-Muller; regenerate u1 until nonzero so log() is finite.
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

int
Rng::poisson(double mean)
{
    if (mean < 0.0)
        fatal("Poisson mean must be non-negative, got ", mean);
    if (mean == 0.0)
        return 0;
    const double limit = std::exp(-mean);
    int k = 0;
    double p = 1.0;
    do {
        ++k;
        p *= uniform();
    } while (p > limit);
    return k - 1;
}

std::size_t
Rng::weightedIndex(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0)
            fatal("weightedIndex: negative weight ", w);
        total += w;
    }
    if (total <= 0.0)
        fatal("weightedIndex: no positive weight");
    double point = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        point -= weights[i];
        if (point < 0.0)
            return i;
    }
    // Floating-point slack: return the last positively weighted index.
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0.0)
            return i;
    }
    panic("weightedIndex: unreachable");
}

Rng
Rng::split()
{
    return Rng(next() ^ 0x9e3779b97f4a7c15ULL);
}

} // namespace amdahl
