/**
 * @file
 * Deterministic pseudo-random number generation for the simulator and the
 * ML substrate.
 *
 * Everything in CounterMiner that draws randomness takes an explicit Rng so
 * that experiments are reproducible from a single seed. The generator is
 * xoshiro256** seeded through SplitMix64, which is fast, has a 2^256-1
 * period, and passes BigCrush — more than enough for simulation workloads.
 */

#ifndef CMINER_UTIL_RNG_H
#define CMINER_UTIL_RNG_H

#include <cstdint>
#include <vector>

namespace cminer::util {

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 *
 * Satisfies UniformRandomBitGenerator so it can also feed <random>
 * adaptors, but the built-in helpers below cover everything the library
 * needs without the standard library's cross-platform nondeterminism.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed the generator deterministically via SplitMix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Smallest value next() can return. */
    static constexpr result_type min() { return 0; }
    /** Largest value next() can return. */
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit draw. */
    result_type next();

    /** UniformRandomBitGenerator interface. */
    result_type operator()() { return next(); }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). Requires lo <= hi. */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal draw (Box-Muller with caching). */
    double gaussian();

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Exponential draw with the given rate (lambda > 0). */
    double exponential(double rate);

    /**
     * Generalized-extreme-value draw.
     *
     * Uses the inverse-CDF method; shape == 0 degenerates to Gumbel.
     *
     * @param location GEV location parameter (mu)
     * @param scale GEV scale parameter (sigma > 0)
     * @param shape GEV shape parameter (xi); > 0 gives a heavy right tail
     */
    double gev(double location, double scale, double shape);

    /** Gumbel draw (GEV with shape 0). */
    double gumbel(double location, double scale);

    /** Log-normal draw parameterized by the underlying normal. */
    double logNormal(double mu, double sigma);

    /** Bernoulli draw with success probability p in [0, 1]. */
    bool bernoulli(double p);

    /** Fisher-Yates shuffle of a vector in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &values)
    {
        for (std::size_t i = values.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(
                uniformInt(0, static_cast<std::int64_t>(i) - 1));
            std::swap(values[i - 1], values[j]);
        }
    }

    /**
     * Sample k distinct indices from [0, n) without replacement.
     *
     * @param n population size
     * @param k sample size; clamped to n
     */
    std::vector<std::size_t> sampleIndices(std::size_t n, std::size_t k);

  private:
    std::uint64_t state_[4];
    bool hasCachedGaussian_ = false;
    double cachedGaussian_ = 0.0;
};

} // namespace cminer::util

#endif // CMINER_UTIL_RNG_H
