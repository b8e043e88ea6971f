/**
 * @file
 * Differential harness for the SIMD kernel layer (DESIGN.md §13).
 *
 * Every kernel is run at every dispatch level available on this
 * machine and compared against the scalar reference on randomized
 * spans: lengths around the vector width, unaligned views, and
 * NaN/Inf/denormal/negative-zero payloads. Kernels in the
 * sequential-exact and blocked-reduction tiers must agree
 * bit-for-bit across levels (zero-sign excepted for the min/max
 * kernels, whose contract leaves it unspecified); the blocked
 * reductions are additionally checked ULP-bounded against the naive
 * left-fold they replaced. Property tests (permutation invariance,
 * triangle inequality, LB_Keogh <= DTW) pin down the math, not just
 * the agreement.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "simd/simd.h"
#include "ts/dtw.h"
#include "ts/lb_keogh.h"
#include "util/rng.h"

namespace {

using cminer::simd::Level;
namespace simd = cminer::simd;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/** Restores the dispatch level active at construction. */
class SimdLevelGuard
{
  public:
    SimdLevelGuard() : saved_(simd::activeLevel()) {}
    ~SimdLevelGuard() { simd::setLevel(saved_); }

  private:
    Level saved_;
};

/** Lengths bracketing 0, 1, the vector widths, blocks, and chunks. */
const std::vector<std::size_t> kLengths = {
    0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 64, 65, 100, 1023, 4097,
};

bool
bitsEqual(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** Value equality with zero signs collapsed (min/max kernel contract). */
bool
valueEqual(double a, double b)
{
    if (std::isnan(a) && std::isnan(b))
        return true;
    return a + 0.0 == b + 0.0;
}

/**
 * Bit equality under the reduction contract: a NaN result carries an
 * unspecified payload/sign, so any NaN matches any NaN.
 */
bool
reductionBitsEqual(double a, double b)
{
    if (std::isnan(a) && std::isnan(b))
        return true;
    return bitsEqual(a, b);
}

enum class Payload
{
    Uniform,      // finite, well scaled
    FiniteWild,   // denormals, negative zero, huge magnitudes
    Special,      // adds NaN and +/-Inf
};

std::vector<double>
makeValues(cminer::util::Rng &rng, std::size_t n, Payload payload)
{
    static const double specials_finite[] = {
        0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), 1e-308, -1e-308,
        1e300, -1e300,
    };
    static const double specials_all[] = {
        0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), 1e308, -1e308,
        kInf, -kInf, kNan,
    };
    std::vector<double> values(n);
    for (auto &v : values) {
        v = rng.uniform(-100.0, 100.0);
        if (payload == Payload::FiniteWild && rng.bernoulli(0.25)) {
            v = specials_finite[static_cast<std::size_t>(
                rng.uniformInt(0, std::size(specials_finite) - 1))];
        } else if (payload == Payload::Special && rng.bernoulli(0.25)) {
            v = specials_all[static_cast<std::size_t>(
                rng.uniformInt(0, std::size(specials_all) - 1))];
        }
    }
    return values;
}

/** Unaligned view: the data starts one double past an allocation. */
std::span<const double>
unaligned(std::vector<double> &storage, const std::vector<double> &values)
{
    storage.assign(values.size() + 1, 0.0);
    std::copy(values.begin(), values.end(), storage.begin() + 1);
    return std::span<const double>(storage).subspan(1);
}

template <typename Fn>
void
forEachLevel(Fn &&fn)
{
    for (Level level : simd::availableLevels()) {
        simd::setLevel(level);
        ASSERT_EQ(simd::activeLevel(), level);
        fn(level);
    }
}

TEST(SimdDispatch, LevelNamesRoundTrip)
{
    EXPECT_STREQ(simd::levelName(Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(Level::Sse2), "sse2");
    EXPECT_STREQ(simd::levelName(Level::Avx2), "avx2");
    for (Level level : {Level::Scalar, Level::Sse2, Level::Avx2}) {
        const auto parsed = simd::parseLevelName(simd::levelName(level));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, level);
    }
    EXPECT_FALSE(simd::parseLevelName("avx512").has_value());
    EXPECT_FALSE(simd::parseLevelName("").has_value());
    EXPECT_FALSE(simd::parseLevelName("SCALAR").has_value());
}

TEST(SimdDispatch, AvailableLevelsAscendFromScalar)
{
    const auto levels = simd::availableLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), Level::Scalar);
    EXPECT_EQ(levels.back(), simd::detectedLevel());
    for (std::size_t i = 1; i < levels.size(); ++i)
        EXPECT_LT(levels[i - 1], levels[i]);
}

TEST(SimdDispatch, SetLevelClampsToDetected)
{
    SimdLevelGuard guard;
    simd::setLevel(Level::Avx2);
    EXPECT_LE(simd::activeLevel(), simd::detectedLevel());
    simd::setLevel(Level::Scalar);
    EXPECT_EQ(simd::activeLevel(), Level::Scalar);
}

TEST(SimdKernels, BlockedReductionsBitIdenticalAcrossLevels)
{
    SimdLevelGuard guard;
    cminer::util::Rng rng(0xb10cced5);
    std::vector<double> storage_a, storage_b;
    for (const std::size_t n : kLengths) {
        for (const Payload payload :
             {Payload::Uniform, Payload::FiniteWild, Payload::Special}) {
            const auto a_vec = makeValues(rng, n, payload);
            const auto b_vec = makeValues(rng, n, payload);
            const auto a = unaligned(storage_a, a_vec);
            const auto b = unaligned(storage_b, b_vec);

            simd::setLevel(Level::Scalar);
            const double ref_dist = simd::squaredDistance(a, b);

            forEachLevel([&](Level level) {
                EXPECT_TRUE(reductionBitsEqual(
                    simd::squaredDistance(a, b), ref_dist))
                    << "squaredDistance n=" << n << " level="
                    << simd::levelName(level);
            });
        }
    }
}

TEST(SimdKernels, LbKeoghSumBitIdenticalAcrossLevels)
{
    SimdLevelGuard guard;
    cminer::util::Rng seeded(0x1b0e95);
    for (const std::size_t n : kLengths) {
        for (const Payload payload :
             {Payload::Uniform, Payload::FiniteWild, Payload::Special}) {
            const auto center = makeValues(seeded, n, payload);
            const auto slack = makeValues(seeded, n, Payload::Uniform);
            const auto candidate = makeValues(seeded, n, payload);
            std::vector<double> lower(n), upper(n);
            for (std::size_t i = 0; i < n; ++i) {
                lower[i] = center[i] - std::abs(slack[i]);
                upper[i] = center[i] + std::abs(slack[i]);
            }
            simd::setLevel(Level::Scalar);
            const double ref = simd::lbKeoghSum(lower, upper, candidate);
            forEachLevel([&](Level level) {
                EXPECT_TRUE(reductionBitsEqual(
                    simd::lbKeoghSum(lower, upper, candidate), ref))
                    << "lbKeoghSum n=" << n << " level="
                    << simd::levelName(level);
            });
        }
    }
}

TEST(SimdKernels, BlockedSumWithinUlpsOfNaiveLeftFold)
{
    // squaredDistance against an all-zero partner: v - 0.0 is exact,
    // so this is the four-lane blocked sum of v * v.
    SimdLevelGuard guard;
    cminer::util::Rng rng(0x5eedf01d);
    for (const std::size_t n : kLengths) {
        std::vector<double> values(n);
        for (auto &v : values)
            v = rng.uniform(1.0, 2.0);
        const std::vector<double> zeros(n, 0.0);
        double naive_sq = 0.0;
        for (double v : values)
            naive_sq += v * v;
        forEachLevel([&](Level) {
            // The blocked schedule only reassociates additions of
            // well-conditioned positive terms: agreement stays within
            // a few ULP of the left fold.
            EXPECT_NEAR(simd::squaredDistance(values, zeros), naive_sq,
                        1e-12 * std::max(1.0, std::abs(naive_sq)));
        });
    }
}

TEST(SimdKernels, SumPermutationInvariantOnExactPayloads)
{
    SimdLevelGuard guard;
    cminer::util::Rng rng(0x9e3779b9);
    for (const std::size_t n : {16u, 64u, 1000u}) {
        // Squares of small integers sum exactly, so any block schedule
        // and any permutation must give the same bits at every level.
        // The all-zero partner makes squaredDistance a sum of squares.
        std::vector<double> values(n);
        for (auto &v : values)
            v = static_cast<double>(rng.uniformInt(-1000, 1000));
        const std::vector<double> zeros(n, 0.0);
        const double expected = [&] {
            double s = 0.0;
            for (double v : values)
                s += v * v;
            return s;
        }();
        for (int shuffle = 0; shuffle < 4; ++shuffle) {
            for (std::size_t i = values.size(); i > 1; --i) {
                const auto j = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(i) - 1));
                std::swap(values[i - 1], values[j]);
            }
            forEachLevel([&](Level level) {
                EXPECT_TRUE(
                    bitsEqual(simd::squaredDistance(values, zeros), expected))
                    << "n=" << n << " level=" << simd::levelName(level);
            });
        }
    }
}

TEST(SimdKernels, SquaredDistanceTriangleInequality)
{
    SimdLevelGuard guard;
    cminer::util::Rng rng(0x7419a273);
    for (const std::size_t n : {1u, 5u, 33u, 256u}) {
        const auto a = makeValues(rng, n, Payload::Uniform);
        const auto b = makeValues(rng, n, Payload::Uniform);
        const auto c = makeValues(rng, n, Payload::Uniform);
        forEachLevel([&](Level) {
            const double ab = std::sqrt(simd::squaredDistance(a, b));
            const double bc = std::sqrt(simd::squaredDistance(b, c));
            const double ac = std::sqrt(simd::squaredDistance(a, c));
            EXPECT_LE(ac, ab + bc + 1e-9 * (1.0 + ab + bc));
            EXPECT_GE(ab, 0.0);
        });
    }
}

TEST(SimdKernels, WindowMinMaxMatchesScalar)
{
    SimdLevelGuard guard;
    cminer::util::Rng rng(0x31415926);
    std::vector<double> storage;
    for (const std::size_t n : kLengths) {
        if (n == 0)
            continue; // contract: non-empty
        const auto values_vec = makeValues(rng, n, Payload::FiniteWild);
        const auto values = unaligned(storage, values_vec);
        simd::setLevel(Level::Scalar);
        double ref_mn = 0.0, ref_mx = 0.0;
        simd::windowMinMax(values, ref_mn, ref_mx);
        forEachLevel([&](Level level) {
            double mn = 0.0, mx = 0.0;
            simd::windowMinMax(values, mn, mx);
            EXPECT_TRUE(valueEqual(mn, ref_mn))
                << "n=" << n << " level=" << simd::levelName(level)
                << " " << mn << " vs " << ref_mn;
            EXPECT_TRUE(valueEqual(mx, ref_mx))
                << "n=" << n << " level=" << simd::levelName(level)
                << " " << mx << " vs " << ref_mx;
        });
    }
}

TEST(SimdKernels, MinMaxFiniteMatchesScalar)
{
    SimdLevelGuard guard;
    cminer::util::Rng rng(0x27182818);
    std::vector<double> storage;
    for (const std::size_t n : kLengths) {
        for (const Payload payload :
             {Payload::FiniteWild, Payload::Special}) {
            const auto values_vec = makeValues(rng, n, payload);
            const auto values = unaligned(storage, values_vec);
            simd::setLevel(Level::Scalar);
            double ref_mn = 0.0, ref_mx = 0.0;
            std::size_t ref_count = 0;
            simd::minMaxFinite(values, ref_mn, ref_mx, ref_count);
            forEachLevel([&](Level level) {
                double mn = 0.0, mx = 0.0;
                std::size_t count = 0;
                simd::minMaxFinite(values, mn, mx, count);
                EXPECT_EQ(count, ref_count)
                    << "n=" << n << " level=" << simd::levelName(level);
                EXPECT_TRUE(valueEqual(mn, ref_mn))
                    << "n=" << n << " level=" << simd::levelName(level);
                EXPECT_TRUE(valueEqual(mx, ref_mx))
                    << "n=" << n << " level=" << simd::levelName(level);
            });
        }
    }
    // All-non-finite spans report the no-data sentinel.
    const std::vector<double> none = {kNan, kInf, -kInf, kNan};
    forEachLevel([&](Level) {
        double mn = 1.0, mx = 2.0;
        std::size_t count = 99;
        simd::minMaxFinite(none, mn, mx, count);
        EXPECT_EQ(count, 0u);
        EXPECT_EQ(mn, 0.0);
        EXPECT_EQ(mx, 0.0);
    });
}

TEST(SimdKernels, CountLessEqualMatchesScalar)
{
    SimdLevelGuard guard;
    cminer::util::Rng rng(0x16180339);
    std::vector<double> storage;
    for (const std::size_t n : kLengths) {
        const auto values_vec = makeValues(rng, n, Payload::Special);
        const auto values = unaligned(storage, values_vec);
        for (const double threshold :
             {0.0, -0.0, 17.5, -120.0, kInf, -kInf, kNan}) {
            simd::setLevel(Level::Scalar);
            const std::size_t ref =
                simd::countLessEqual(values, threshold);
            forEachLevel([&](Level level) {
                EXPECT_EQ(simd::countLessEqual(values, threshold), ref)
                    << "n=" << n << " threshold=" << threshold
                    << " level=" << simd::levelName(level);
            });
        }
    }
}

TEST(SimdKernels, LowerBoundBinsMatchesScalar)
{
    SimdLevelGuard guard;
    cminer::util::Rng rng(0x14142135);
    std::vector<double> storage;
    for (const std::size_t edge_count : {1u, 2u, 3u, 5u, 17u, 32u, 33u,
                                         64u, 255u}) {
        std::vector<double> edges(edge_count);
        for (auto &e : edges)
            e = rng.uniform(-50.0, 50.0);
        std::sort(edges.begin(), edges.end());
        // Duplicate an edge: lower_bound must still count strictly-less.
        if (edge_count >= 4)
            edges[2] = edges[1];
        for (const std::size_t n : kLengths) {
            auto values_vec = makeValues(rng, n, Payload::FiniteWild);
            // Exercise exact-hit paths: values equal to edges.
            for (auto &v : values_vec) {
                if (rng.bernoulli(0.2))
                    v = edges[static_cast<std::size_t>(rng.uniformInt(
                        0, static_cast<std::int64_t>(edge_count) - 1))];
            }
            const auto values = unaligned(storage, values_vec);
            std::vector<std::uint8_t> ref(n, 0xee), got(n, 0x11);
            simd::setLevel(Level::Scalar);
            simd::lowerBoundBins(values, edges, ref);
            forEachLevel([&](Level level) {
                std::fill(got.begin(), got.end(), std::uint8_t{0x11});
                simd::lowerBoundBins(values, edges, got);
                EXPECT_EQ(got, ref)
                    << "edges=" << edge_count << " n=" << n
                    << " level=" << simd::levelName(level);
            });
        }
    }
}

TEST(SimdKernels, EquiWidthBinsMatchesScalar)
{
    SimdLevelGuard guard;
    cminer::util::Rng rng(0x17320508);
    std::vector<double> storage;
    for (const std::size_t bins : {1u, 2u, 7u, 32u, 1000u}) {
        const double low = rng.uniform(-100.0, 0.0);
        const double high = low + rng.uniform(1.0, 200.0);
        const double width =
            (high - low) / static_cast<double>(bins);
        for (const std::size_t n : kLengths) {
            std::vector<double> values_vec(n);
            for (auto &v : values_vec) {
                // Mostly in range, some straddling the boundaries.
                v = rng.uniform(low - 10.0, high + 10.0);
                if (rng.bernoulli(0.1))
                    v = rng.bernoulli(0.5) ? low : high;
            }
            const auto values = unaligned(storage, values_vec);
            std::vector<std::uint32_t> ref(n, 7777), got(n, 1111);
            simd::setLevel(Level::Scalar);
            simd::equiWidthBins(values, low, high, width, bins, ref);
            forEachLevel([&](Level level) {
                std::fill(got.begin(), got.end(), std::uint32_t{1111});
                simd::equiWidthBins(values, low, high, width, bins, got);
                EXPECT_EQ(got, ref)
                    << "bins=" << bins << " n=" << n
                    << " level=" << simd::levelName(level);
            });
        }
    }
    // Degenerate width: everything lands in bin zero at every level.
    const std::vector<double> values = {1.0, 2.0, 3.0};
    forEachLevel([&](Level) {
        std::vector<std::uint32_t> got(values.size(), 42);
        simd::equiWidthBins(values, 5.0, 5.0, 0.0, 4, got);
        for (const std::uint32_t b : got)
            EXPECT_EQ(b, 0u);
    });
}

TEST(SimdProperties, LbKeoghBoundsDtwAcrossLevels)
{
    SimdLevelGuard guard;
    cminer::util::Rng rng(0x6a09e667);
    namespace ts = cminer::ts;
    for (int trial = 0; trial < 8; ++trial) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(8, 120));
        const auto a = makeValues(rng, n, Payload::Uniform);
        const auto b = makeValues(rng, n, Payload::Uniform);
        const double band_fraction = 0.1;
        const auto radius = ts::dtwBandHalfWidth(n, n, band_fraction) + 1;
        forEachLevel([&](Level level) {
            const auto envelope = ts::computeEnvelope(a, radius);
            const double bound = ts::lbKeogh(envelope, b);
            ts::DtwOptions options;
            options.bandFraction = band_fraction;
            const double distance = ts::dtwDistance(a, b, options);
            EXPECT_LE(bound, distance + 1e-9 * (1.0 + distance))
                << "n=" << n << " level=" << simd::levelName(level);
        });
    }
}

/**
 * LB_Keogh must stay an admissible bound on *z-normalized* series —
 * the form every mining signature takes — including constant series.
 * Regression: two-pass variance leaves a constant series whose mean
 * does not round-trip (e.g. all 0.1) with a tiny nonzero sigma, and
 * dividing by it amplified rounding noise to unit scale: the
 * "normalized" constant became garbage whose LB could exceed DTW
 * against a genuinely normalized query. zNormalize now detects the
 * constant case by relative epsilon and returns exact zeros.
 */
TEST(SimdProperties, LbKeoghBoundsDtwOnZNormalizedSeries)
{
    SimdLevelGuard guard;
    cminer::util::Rng rng(0xbb67ae85);
    namespace ts = cminer::ts;
    const double band_fraction = 0.1;
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(8, 96));
        // Mix genuine signals with constant series whose value does
        // not round-trip through the mean (0.1, 1/3, ...).
        auto make = [&](int kind) {
            std::vector<double> values;
            switch (kind) {
            case 0:
                values = makeValues(rng, n, Payload::Uniform);
                break;
            case 1:
                values.assign(n, 0.1);
                break;
            case 2:
                values.assign(n, 1.0 / 3.0);
                break;
            default:
                values.assign(n, -1e6 + 0.7);
                break;
            }
            ts::zNormalize(values);
            return values;
        };
        const int kind_a = static_cast<int>(rng.uniformInt(0, 3));
        const int kind_b = static_cast<int>(rng.uniformInt(0, 3));
        const auto a = make(kind_a);
        const auto b = make(kind_b);
        // A z-normalized constant series collapses to ~zero, not to
        // amplified rounding noise: the constant-series carve-out
        // pins sigma to 1 instead of dividing by a denormal-scale
        // stddev. (The residues are not exactly zero — the mean of n
        // identical values rounds at the constant's magnitude, so a
        // 1e6-scale constant leaves ~1e-10 residues.)
        if (kind_a != 0) {
            for (double v : a)
                ASSERT_LE(std::abs(v), 1e-6) << "kind " << kind_a;
        }
        // The envelope radius the mining search uses: at least the DTW
        // band half-width, keeping the bound admissible.
        const auto radius = ts::dtwBandHalfWidth(n, n, band_fraction) + 1;
        forEachLevel([&](Level level) {
            const auto envelope = ts::computeEnvelope(a, radius);
            const double bound = ts::lbKeogh(envelope, b);
            ts::DtwOptions options;
            options.bandFraction = band_fraction;
            const double distance = ts::dtwDistance(a, b, options);
            EXPECT_LE(bound, distance + 1e-9 * (1.0 + distance))
                << "n=" << n << " kinds=" << kind_a << "," << kind_b
                << " level=" << simd::levelName(level);
        });
    }
}

} // namespace
