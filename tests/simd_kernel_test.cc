/**
 * @file
 * Tests for the build-time kernels (DESIGN.md §13).
 *
 * lowerBoundBins, the one kernel left in src/simd, is checked against
 * std::lower_bound on unaligned spans of 0 to 4097 values. The loops
 * that moved to their callers (the LB_Keogh envelope and sum, the
 * cleaner's finite range, fractionWithin's count, the histogram's bin
 * assignment) are pinned by FNV-1a hashes of their public entry
 * points, taken before they moved. Property tests check that LB_Keogh
 * stays a lower bound of banded DTW.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/cleaner.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "simd/simd.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "ts/dtw.h"
#include "ts/lb_keogh.h"
#include "util/rng.h"

namespace {

namespace simd = cminer::simd;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/** Lengths bracketing 0, 1, the vector widths, blocks, and chunks. */
const std::vector<std::size_t> kLengths = {
    0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 64, 65, 100, 1023, 4097,
};

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

TEST(SimdKernels, LowerBoundBinsMatchesScalar)
{
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
            for (const Payload payload :
                 {Payload::FiniteWild, Payload::Special}) {
                auto values_vec = makeValues(rng, n, payload);
                // Exercise exact-hit paths: values equal to edges.
                for (auto &v : values_vec) {
                    if (rng.bernoulli(0.2))
                        v = edges[static_cast<std::size_t>(rng.uniformInt(
                            0, static_cast<std::int64_t>(edge_count) - 1))];
                }
                const auto values = unaligned(storage, values_vec);
                std::vector<std::uint8_t> expected(n);
                for (std::size_t i = 0; i < n; ++i) {
                    const auto it = std::lower_bound(
                        edges.begin(), edges.end(), values[i]);
                    expected[i] = static_cast<std::uint8_t>(std::min(
                        static_cast<std::size_t>(it - edges.begin()),
                        edge_count - 1));
                }
                // The output starts one byte into its buffer too.
                std::vector<std::uint8_t> got(n + 1, 0x11);
                simd::lowerBoundBins(values, edges,
                                     std::span<std::uint8_t>(got).subspan(1));
                EXPECT_EQ(got[0], 0x11) << "wrote before the output";
                EXPECT_EQ(std::vector<std::uint8_t>(got.begin() + 1,
                                                    got.end()),
                          expected)
                    << "edges=" << edge_count << " n=" << n;
            }
        }
    }
}

/** 64-bit FNV-1a over the little-endian bytes of each word added. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (word >> (8 * byte)) & 0xffU;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Envelopes and LB_Keogh bounds, radii from 0 to past the series. */
std::uint64_t
envelopeBoundHash()
{
    namespace ts = cminer::ts;
    cminer::util::Rng rng(0xe7e10be);
    Fnv1a hash;
    for (const std::size_t n : kLengths) {
        if (n == 0)
            continue; // computeEnvelope requires a non-empty series
        const auto series = makeValues(rng, n, Payload::FiniteWild);
        const auto candidate = makeValues(rng, n, Payload::FiniteWild);
        for (const std::size_t radius :
             {std::size_t{0}, std::size_t{1}, std::size_t{2},
              std::size_t{5}, n / 10 + 1, n - 1, n, n + 3}) {
            const auto envelope = ts::computeEnvelope(series, radius);
            for (std::size_t i = 0; i < n; ++i) {
                hash.add(envelope.lower[i]);
                hash.add(envelope.upper[i]);
            }
            hash.add(ts::lbKeogh(envelope, candidate));
        }
    }
    return hash.value();
}

/** fractionWithin with NaN and +-Inf in the values and the threshold. */
std::uint64_t
fractionWithinHash()
{
    cminer::util::Rng rng(0xf4ac7);
    Fnv1a hash;
    for (const std::size_t n : kLengths) {
        const auto values = makeValues(rng, n, Payload::Special);
        for (const double threshold :
             {0.0, -0.0, 17.5, -120.0, 1e308, kInf, -kInf, kNan})
            hash.add(cminer::stats::fractionWithin(values, threshold));
    }
    return hash.value();
}

/** Histogram counts and interval medians in, at and past the range. */
std::uint64_t
histogramHash()
{
    namespace stats = cminer::stats;
    cminer::util::Rng rng(0x415706);
    Fnv1a hash;
    for (const std::size_t n : {1u, 2u, 3u, 8u, 17u, 100u, 1023u}) {
        std::vector<double> values(n);
        for (std::size_t i = 0; i < n; ++i) {
            // Repeats and a coarse grid put values on bin boundaries.
            values[i] = i > 0 && rng.bernoulli(0.2)
                            ? values[i - 1]
                            : 0.25 * static_cast<double>(
                                         rng.uniformInt(-200, 200));
        }
        for (const std::size_t bins : {0u, 1u, 2u, 7u, 32u, 1000u}) {
            const stats::Histogram histogram =
                bins == 0 ? stats::Histogram(values)
                          : stats::Histogram(values, bins);
            hash.add(std::uint64_t{histogram.binCount()});
            hash.add(histogram.binWidth());
            for (std::size_t b = 0; b < histogram.binCount(); ++b)
                hash.add(std::uint64_t{histogram.count(b)});
            const double low = histogram.low();
            const double high = histogram.high();
            for (const double q :
                 {low, high, low - 1.0, high + 1.0, -kInf, kInf,
                  0.5 * (low + high), low + 0.3 * (high - low)})
                hash.add(histogram.intervalMedian(q));
            for (const double v : values)
                hash.add(histogram.intervalMedian(v));
        }
    }
    return hash.value();
}

/** The cleaner on all-non-finite series and on damaged ones. */
std::uint64_t
cleanerHash()
{
    const cminer::core::DataCleaner cleaner;
    cminer::util::Rng rng(0xc1ea);
    Fnv1a hash;
    auto clean = [&](std::vector<double> values) {
        const auto report = cleaner.cleanValues("EVT", values);
        for (const double v : values)
            hash.add(v);
        hash.add(std::uint64_t{report.outliersReplaced});
        hash.add(std::uint64_t{report.missingFilled});
        hash.add(std::uint64_t{report.nonFiniteRepaired});
        hash.add(std::uint64_t{report.trueZerosKept});
        hash.add(report.thresholdN);
        hash.add(report.threshold);
        for (const char c : report.distribution)
            hash.add(std::uint64_t{static_cast<unsigned char>(c)});
    };
    const double specials[] = {kNan, kInf, -kInf};
    for (const std::size_t n : {1u, 2u, 7u, 64u}) {
        std::vector<double> values(n);
        for (auto &v : values)
            v = specials[rng.uniformInt(0, 2)];
        clean(values);
    }
    for (const std::size_t n : {16u, 160u, 1000u}) {
        std::vector<double> values(n);
        for (auto &v : values) {
            v = rng.gaussian(300.0, 20.0);
            if (rng.bernoulli(0.05))
                v = 0.0;
            else if (rng.bernoulli(0.03))
                v = specials[rng.uniformInt(0, 2)];
            else if (rng.bernoulli(0.03))
                v = -v;
            else if (rng.bernoulli(0.02))
                v *= 20.0;
        }
        clean(values);
    }
    // Genuine zeros: the true-zero rule keeps them.
    std::vector<double> small(40, 0.0);
    for (std::size_t i = 0; i < small.size(); i += 3)
        small[i] = 0.005;
    small[7] = kNan;
    clean(small);
    return hash.value();
}

/** FeatureBinner edges and bin columns, 1 to 255 edges. */
std::uint64_t
featureBinnerHash()
{
    namespace ml = cminer::ml;
    cminer::util::Rng rng(0xb1225);
    Fnv1a hash;
    for (const std::size_t rows : {1u, 2u, 3u, 5u, 64u, 601u}) {
        std::vector<std::vector<double>> columns(5,
                                                 std::vector<double>(rows));
        const auto wild = makeValues(rng, rows, Payload::FiniteWild);
        for (std::size_t r = 0; r < rows; ++r) {
            columns[0][r] = rng.uniform(-50.0, 50.0);
            columns[1][r] = static_cast<double>(rng.uniformInt(0, 3));
            columns[2][r] = 7.0;
            columns[3][r] = wild[r];
            columns[4][r] = std::round(rng.gaussian() * 10.0) / 10.0;
        }
        const ml::Dataset data = ml::Dataset::fromColumns(
            {"uniform", "four", "constant", "wild", "tenths"},
            std::move(columns), std::vector<double>(rows, 0.0));
        for (const std::size_t max_bins :
             {2u, 3u, 5u, 16u, 32u, 33u, 34u, 64u, 128u, 255u}) {
            const ml::FeatureBinner binner(data, max_bins);
            for (std::size_t f = 0; f < data.featureCount(); ++f) {
                hash.add(std::uint64_t{binner.binCount(f)});
                for (std::size_t b = 0; b < binner.binCount(f); ++b)
                    hash.add(binner.upperEdge(f, b));
                for (const std::uint8_t bin : binner.binColumn(f))
                    hash.add(std::uint64_t{bin});
            }
        }
    }
    return hash.value();
}

// The kernels that left src/simd keep their bits: each hash covers the
// public entry points over one of them and was taken before the move.
TEST(SimdKernels, MovedKernelsKeepTheirBits)
{
    EXPECT_EQ(envelopeBoundHash(), 0x747d5d50a8c243eeULL);
    EXPECT_EQ(fractionWithinHash(), 0xbe6b7dc784e25467ULL);
    EXPECT_EQ(histogramHash(), 0x17854b74a673bab8ULL);
    EXPECT_EQ(cleanerHash(), 0x42379acbc2ca6841ULL);
    EXPECT_EQ(featureBinnerHash(), 0x07e8ae50be8bb652ULL);
}

TEST(SimdProperties, LbKeoghBoundsDtwAcrossLevels)
{
    cminer::util::Rng rng(0x6a09e667);
    namespace ts = cminer::ts;
    for (int trial = 0; trial < 8; ++trial) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(8, 120));
        const auto a = makeValues(rng, n, Payload::Uniform);
        const auto b = makeValues(rng, n, Payload::Uniform);
        const double band_fraction = 0.1;
        const auto radius = ts::dtwBandHalfWidth(n, n, band_fraction) + 1;
        const auto envelope = ts::computeEnvelope(a, radius);
        const double bound = ts::lbKeogh(envelope, b);
        ts::DtwOptions options;
        options.bandFraction = band_fraction;
        const double distance = ts::dtwDistance(a, b, options);
        EXPECT_LE(bound, distance + 1e-9 * (1.0 + distance)) << "n=" << n;
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
        const auto envelope = ts::computeEnvelope(a, radius);
        const double bound = ts::lbKeogh(envelope, b);
        ts::DtwOptions options;
        options.bandFraction = band_fraction;
        const double distance = ts::dtwDistance(a, b, options);
        EXPECT_LE(bound, distance + 1e-9 * (1.0 + distance))
            << "n=" << n << " kinds=" << kind_a << "," << kind_b;
    }
}

} // namespace
