#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/error.h"

namespace cminer::util {

namespace {

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitMix64(s);
}

Rng::result_type
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53-bit mantissa from the top bits for a uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    CM_ASSERT(lo <= hi);
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    CM_ASSERT(lo <= hi);
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = ~0ULL - (~0ULL % range);
    std::uint64_t draw;
    do {
        draw = next();
    } while (draw > limit);
    return lo + static_cast<std::int64_t>(draw % range);
}

double
Rng::gaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    // Box-Muller; u1 must be strictly positive for the log.
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cachedGaussian_ = radius * std::sin(angle);
    hasCachedGaussian_ = true;
    return radius * std::cos(angle);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

double
Rng::exponential(double rate)
{
    CM_ASSERT(rate > 0.0);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

double
Rng::gev(double location, double scale, double shape)
{
    CM_ASSERT(scale > 0.0);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0 || u >= 1.0);
    if (std::abs(shape) < 1e-12)
        return location - scale * std::log(-std::log(u));
    return location + scale * (std::pow(-std::log(u), -shape) - 1.0) / shape;
}

double
Rng::gumbel(double location, double scale)
{
    return gev(location, scale, 0.0);
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(gaussian(mu, sigma));
}

bool
Rng::bernoulli(double p)
{
    CM_ASSERT(p >= 0.0 && p <= 1.0);
    return uniform() < p;
}

std::vector<std::size_t>
Rng::sampleIndices(std::size_t n, std::size_t k)
{
    if (k >= n) {
        std::vector<std::size_t> all(n);
        for (std::size_t i = 0; i < n; ++i)
            all[i] = i;
        return all;
    }
    // Partial Fisher-Yates over an index vector: O(n) space, O(n + k) time.
    std::vector<std::size_t> pool(n);
    for (std::size_t i = 0; i < n; ++i)
        pool[i] = i;
    std::vector<std::size_t> picked;
    picked.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        std::size_t j = static_cast<std::size_t>(
            uniformInt(static_cast<std::int64_t>(i),
                       static_cast<std::int64_t>(n) - 1));
        std::swap(pool[i], pool[j]);
        picked.push_back(pool[i]);
    }
    return picked;
}

} // namespace cminer::util
