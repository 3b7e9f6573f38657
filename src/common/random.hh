/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the reproduction (population generation,
 * dataset sampling, task-duration jitter) draws from an explicitly seeded
 * Rng so that experiments are bit-reproducible across runs and platforms.
 * The engine is xoshiro256** seeded through SplitMix64, following the
 * reference construction by Blackman and Vigna.
 *
 * This module is the designated owner of randomness: amdahl_lint's
 * DET-rand rule flags std::rand, std::random_device, and the <random>
 * engines/distributions (whose output is implementation-defined)
 * everywhere else in src/ and bench/ (see tools/lint/ and DESIGN.md
 * §12).
 */

#ifndef AMDAHL_COMMON_RANDOM_HH
#define AMDAHL_COMMON_RANDOM_HH

#include <array>
#include <cstdint>
#include <vector>

namespace amdahl {

/**
 * SplitMix64 generator.
 *
 * Used to expand a single 64-bit seed into the larger state of
 * xoshiro256**; also usable standalone for cheap hashing-style streams.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** @return The next 64-bit value in the stream. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * Counter-based substream derivation.
 *
 * mix64 is the SplitMix64 output function applied as a hash: a
 * bijective 64-bit finalizer with full avalanche. substreamSeed chains
 * it over (seed, a, b) so every (a, b) pair — e.g. (user, round) —
 * names a statistically independent seed. Unlike drawing from one
 * sequential stream, the value at (a, b) does not depend on how many
 * draws other (a', b') consumers made, or in what order: realizations
 * are a pure function of the coordinates. The fault-injection layers
 * use this so a bid-loss decision for user u in round r is identical
 * whether users are processed serially, in parallel, or by either
 * price exchange (in process or sharded).
 */

/** @return SplitMix64 finalizer of @p x (stateless hash). */
inline std::uint64_t
mix64(std::uint64_t x)
{
    std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** @return An independent 64-bit seed for coordinates (@p a, @p b)
 *  under @p seed. Pure function — order-independent. */
inline std::uint64_t
substreamSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    return mix64(mix64(mix64(seed) ^ a) ^ b);
}

/** @return A double uniform in [0, 1) derived from @p bits (the same
 *  53-bit construction Rng::uniform uses). */
inline double
counterUniform(std::uint64_t bits)
{
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/** @return true with probability @p p (clamped to [0, 1]) for the
 *  substream at (@p seed, @p a, @p b). Pure function of its
 *  arguments. */
inline bool
counterBernoulli(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                 double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return counterUniform(mix64(substreamSeed(seed, a, b))) < p;
}

/**
 * xoshiro256** engine with convenience distributions.
 *
 * Satisfies UniformRandomBitGenerator so it can also be plugged into
 * <random> distributions, but the built-in helpers below are preferred:
 * they are deterministic across standard-library implementations.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x2018'0214'acadULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** @return The next raw 64-bit output. */
    result_type operator()() { return next(); }

    /** @return The next raw 64-bit output. */
    std::uint64_t next();

    /** @return A double uniform in [0, 1). */
    double uniform();

    /** @return A double uniform in [lo, hi). Requires lo <= hi. */
    double uniform(double lo, double hi);

    /**
     * @return An integer uniform in the inclusive range [lo, hi].
     * Uses rejection sampling; unbiased. Requires lo <= hi.
     */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** @return A standard normal deviate (Box-Muller, no cached spare). */
    double gaussian();

    /** @return A normal deviate with the given mean and stddev. */
    double gaussian(double mean, double stddev);

    /** @return true with probability p (clamped to [0, 1]). */
    bool bernoulli(double p);

    /**
     * @return A Poisson deviate with the given mean (Knuth's method;
     * fine for the small means used by arrival processes). Requires
     * mean >= 0.
     */
    int poisson(double mean);

    /**
     * Pick an index in [0, weights.size()) with probability proportional
     * to the (non-negative) weights. Requires at least one positive weight.
     */
    std::size_t weightedIndex(const std::vector<double> &weights);

    /**
     * Spawn an independent child generator.
     *
     * Streams of the child are statistically independent from subsequent
     * draws of the parent, letting experiment components own private Rngs.
     */
    Rng split();

    /**
     * Resume from raw engine words (any words are accepted). A
     * generator built from another's state() produces exactly the
     * draw sequence the original would have produced, the property
     * crash recovery relies on to replay epochs bit-identically.
     */
    explicit Rng(const std::array<std::uint64_t, 4> &state)
        : words(state)
    {
    }

    /** @return The raw engine state (for durable snapshots). */
    const std::array<std::uint64_t, 4> &state() const { return words; }

  private:
    std::array<std::uint64_t, 4> words;
};

} // namespace amdahl

#endif // AMDAHL_COMMON_RANDOM_HH
