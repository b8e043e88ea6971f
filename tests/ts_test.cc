/**
 * @file
 * Unit and property tests for the time-series module: the TimeSeries
 * container, the DTW distance (identity, symmetry, warping behaviour,
 * band constraint, path validity), and resampling.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ts/dtw.h"
#include "ts/lb_keogh.h"
#include "ts/resample.h"
#include "ts/time_series.h"
#include "util/rng.h"

namespace {

using namespace cminer::ts;
using cminer::util::Rng;

// --- TimeSeries ------------------------------------------------------

TEST(TimeSeries, BasicAccessors)
{
    TimeSeries series("ICACHE.MISSES", {1.0, 2.0, 3.0}, 10.0);
    EXPECT_EQ(series.eventName(), "ICACHE.MISSES");
    EXPECT_EQ(series.size(), 3u);
    EXPECT_FALSE(series.empty());
    EXPECT_DOUBLE_EQ(series.at(1), 2.0);
    EXPECT_DOUBLE_EQ(series.intervalMs(), 10.0);
    EXPECT_DOUBLE_EQ(series.durationMs(), 30.0);
    EXPECT_DOUBLE_EQ(series.total(), 6.0);
}

TEST(TimeSeries, SetAndAppend)
{
    TimeSeries series("X", {1.0});
    series.set(0, 5.0);
    series.append(7.0);
    EXPECT_DOUBLE_EQ(series.at(0), 5.0);
    EXPECT_DOUBLE_EQ(series.at(1), 7.0);
    EXPECT_EQ(series.size(), 2u);
}

// --- DTW --------------------------------------------------------------

TEST(Dtw, IdenticalSeriesHaveZeroDistance)
{
    const std::vector<double> x = {1, 3, 2, 5, 4};
    EXPECT_DOUBLE_EQ(dtwDistance(x, x), 0.0);
}

TEST(Dtw, SymmetricWithoutBand)
{
    const std::vector<double> a = {1, 2, 3, 4, 9};
    const std::vector<double> b = {1, 5, 3};
    EXPECT_DOUBLE_EQ(dtwDistance(a, b), dtwDistance(b, a));
}

TEST(Dtw, NonNegative)
{
    Rng rng(1);
    for (int rep = 0; rep < 20; ++rep) {
        std::vector<double> a, b;
        const int n = static_cast<int>(rng.uniformInt(1, 30));
        const int m = static_cast<int>(rng.uniformInt(1, 30));
        for (int i = 0; i < n; ++i)
            a.push_back(rng.gaussian());
        for (int i = 0; i < m; ++i)
            b.push_back(rng.gaussian());
        EXPECT_GE(dtwDistance(a, b), 0.0);
    }
}

TEST(Dtw, KnownSmallCase)
{
    // Classic alignment: the time-shifted bump costs nothing.
    const std::vector<double> a = {0, 0, 1, 2, 1, 0, 0};
    const std::vector<double> b = {0, 1, 2, 1, 0, 0, 0};
    EXPECT_DOUBLE_EQ(dtwDistance(a, b), 0.0);
}

TEST(Dtw, ConstantShiftCostsPerPoint)
{
    const std::vector<double> a = {1, 1, 1, 1};
    const std::vector<double> b = {2, 2, 2, 2};
    // Every matched pair costs 1; the optimal path has 4 diagonal steps.
    EXPECT_DOUBLE_EQ(dtwDistance(a, b), 4.0);
}

TEST(Dtw, HandlesDifferentLengths)
{
    const std::vector<double> a = {1, 2, 3};
    const std::vector<double> b = {1, 1, 2, 2, 3, 3};
    EXPECT_DOUBLE_EQ(dtwDistance(a, b), 0.0);
}

TEST(Dtw, SingleElementSeries)
{
    const std::vector<double> a = {5.0};
    const std::vector<double> b = {1.0, 2.0, 3.0};
    // One element matches against all of b.
    EXPECT_DOUBLE_EQ(dtwDistance(a, b), 4.0 + 3.0 + 2.0);
}

TEST(Dtw, TimeSeriesOverloadMatchesSpanOverload)
{
    const TimeSeries a("A", {1, 2, 3, 4});
    const TimeSeries b("B", {1, 3, 3, 5});
    EXPECT_DOUBLE_EQ(dtwDistance(a, b),
                     dtwDistance(a.span(), b.span()));
}

TEST(Dtw, BandedDistanceUpperBoundsExact)
{
    Rng rng(2);
    std::vector<double> a, b;
    for (int i = 0; i < 120; ++i) {
        a.push_back(std::sin(i * 0.2) + rng.gaussian(0.0, 0.05));
        b.push_back(std::sin(i * 0.2 + 0.4) + rng.gaussian(0.0, 0.05));
    }
    DtwOptions banded;
    banded.bandFraction = 0.1;
    const double exact = dtwDistance(a, b);
    const double within_band = dtwDistance(a, b, banded);
    EXPECT_GE(within_band, exact - 1e-9);
    // The band is generous enough here to stay close to exact.
    EXPECT_LT(within_band, exact * 1.5 + 1.0);
}

TEST(Dtw, BandCoversLengthMismatch)
{
    // A narrow band must still admit a path when lengths differ a lot.
    std::vector<double> a(10, 1.0);
    std::vector<double> b(50, 1.0);
    DtwOptions banded;
    banded.bandFraction = 0.05;
    EXPECT_DOUBLE_EQ(dtwDistance(a, b, banded), 0.0);
}

// dtwAlign fills the whole matrix with the classic three-way recurrence,
// so it is an independent reference for dtwDistance's two-row banded
// loop, which must match it bit for bit.
TEST(Dtw, DistanceMatchesFullMatrixBitForBit)
{
    Rng rng(0x2c1e4e4);
    std::vector<std::pair<std::size_t, std::size_t>> shapes = {
        // Near-square: the band moves about one column per row.
        {1, 1}, {7, 8}, {40, 40}, {200, 190}, {100, 120},
        // n << m: the band jumps several columns per row.
        {1, 9}, {64, 80}, {7, 200}, {2, 301},
        // n > m: the band stalls on some rows while the row two back
        // still holds cells left of it.
        {9, 1}, {200, 7}, {301, 2}, {97, 64}, {120, 100}, {300, 200},
    };
    for (int extra = 0; extra < 20; ++extra) {
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 301));
        const auto m = static_cast<std::size_t>(rng.uniformInt(1, 301));
        shapes.emplace_back(n, m);
    }
    // Seventeen pairs per shape. Even pairs are uniform noise. Odd
    // pairs are a ramp against a curve that rises early: the cheapest
    // path runs along the band's left edge, next to the cells that the
    // row two back left behind. The one-pair path, and dtwDistances
    // over the first 1..17 pairs, must match the full matrix: one and
    // two full 8-pair blocks, tails of one to seven pairs behind them,
    // and registers whose two halves hold different pairs (noise in
    // one, the ramp in the other).
    constexpr std::size_t pair_count = 17;
    for (const auto &[n, m] : shapes) {
        std::vector<std::vector<double>> as(pair_count,
                                            std::vector<double>(n));
        std::vector<std::vector<double>> bs(pair_count,
                                            std::vector<double>(m));
        std::vector<DtwPair> pairs;
        for (std::size_t k = 0; k < pair_count; ++k) {
            if (k % 2 == 0) {
                for (auto &v : as[k])
                    v = rng.uniform(-2.0, 2.0);
                for (auto &v : bs[k])
                    v = rng.uniform(-2.0, 2.0);
            } else {
                const double slope = k == 1 ? 1.0 : rng.uniform(0.5, 1.5);
                for (std::size_t i = 0; i < n; ++i)
                    as[k][i] = slope * static_cast<double>(i) /
                               static_cast<double>(n);
                for (std::size_t j = 0; j < m; ++j)
                    bs[k][j] = std::sqrt(static_cast<double>(j) /
                                         static_cast<double>(m));
            }
            pairs.push_back({as[k], bs[k]});
        }
        for (const double fraction : {0.0, 0.02, 0.1, 0.5, 1.0}) {
            DtwOptions options;
            options.bandFraction = fraction;
            std::vector<std::uint64_t> full;
            for (std::size_t k = 0; k < pair_count; ++k) {
                full.push_back(std::bit_cast<std::uint64_t>(
                    dtwAlign(as[k], bs[k], options).distance));
                const double fused = dtwDistance(as[k], bs[k], options);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(fused), full[k])
                    << "pair " << k << " " << n << "x" << m << " band "
                    << fraction;
            }
            for (std::size_t batch = 1; batch <= pair_count; ++batch) {
                std::vector<double> out(batch);
                dtwDistances(std::span(pairs).first(batch), options, out);
                for (std::size_t k = 0; k < batch; ++k)
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[k]),
                              full[k])
                        << "batch " << batch << " pair " << k << " " << n
                        << "x" << m << " band " << fraction;
            }
        }
    }
}

TEST(Dtw, BandHalfWidthCoversLengthDifference)
{
    EXPECT_EQ(dtwBandHalfWidth(64, 64, 0.0), 64u);
    EXPECT_EQ(dtwBandHalfWidth(10, 50, 0.0), 50u);
    EXPECT_EQ(dtwBandHalfWidth(128, 128, 0.1), 13u);
    EXPECT_EQ(dtwBandHalfWidth(64, 64, 1.0), 64u);
    // Never narrower than |n - m| + 1, or no path would exist.
    EXPECT_EQ(dtwBandHalfWidth(10, 50, 0.05), 41u);
    EXPECT_EQ(dtwBandHalfWidth(50, 10, 0.05), 41u);
}

TEST(DtwAlign, PathIsValidWarpingPath)
{
    Rng rng(3);
    std::vector<double> a, b;
    for (int i = 0; i < 40; ++i)
        a.push_back(rng.gaussian());
    for (int i = 0; i < 30; ++i)
        b.push_back(rng.gaussian());
    const DtwResult result = dtwAlign(a, b);

    ASSERT_FALSE(result.path.empty());
    // Boundary conditions.
    EXPECT_EQ(result.path.front(), std::make_pair(std::size_t{0},
                                                  std::size_t{0}));
    EXPECT_EQ(result.path.back(),
              std::make_pair(a.size() - 1, b.size() - 1));
    // Monotonicity and continuity.
    for (std::size_t k = 1; k < result.path.size(); ++k) {
        const auto [pi, pj] = result.path[k - 1];
        const auto [ci, cj] = result.path[k];
        EXPECT_GE(ci, pi);
        EXPECT_GE(cj, pj);
        EXPECT_LE(ci - pi, 1u);
        EXPECT_LE(cj - pj, 1u);
        EXPECT_TRUE(ci != pi || cj != pj);
    }
}

TEST(DtwAlign, DistanceMatchesPathCost)
{
    const std::vector<double> a = {0, 2, 4, 2, 0};
    const std::vector<double> b = {0, 1, 4, 1, 0};
    const DtwResult result = dtwAlign(a, b);
    double path_cost = 0.0;
    for (const auto &[i, j] : result.path)
        path_cost += std::abs(a[i] - b[j]);
    EXPECT_DOUBLE_EQ(result.distance, path_cost);
    EXPECT_DOUBLE_EQ(result.distance, dtwDistance(a, b));
}

/**
 * Property sweep: DTW is invariant to duplicating points (stretching a
 * series in time costs nothing extra).
 */
class DtwStretchProperty : public ::testing::TestWithParam<int>
{};

TEST_P(DtwStretchProperty, StretchInvariance)
{
    Rng rng(100 + GetParam());
    std::vector<double> a;
    for (int i = 0; i < 20; ++i)
        a.push_back(rng.gaussian());
    // Duplicate every element k times.
    std::vector<double> stretched;
    for (double v : a) {
        for (int k = 0; k < GetParam(); ++k)
            stretched.push_back(v);
    }
    EXPECT_DOUBLE_EQ(dtwDistance(a, stretched), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DtwStretchProperty,
                         ::testing::Values(1, 2, 3, 5));

// --- DTW / LB_Keogh edge cases ---------------------------------------

TEST(DtwEdge, EmptySeriesPanics)
{
    const std::vector<double> empty;
    const std::vector<double> some = {1.0, 2.0};
    EXPECT_DEATH(dtwDistance(empty, some), "assertion failed");
    EXPECT_DEATH(dtwDistance(some, empty), "assertion failed");
}

TEST(DtwEdge, LengthOneBothSeries)
{
    const std::vector<double> a = {5.0};
    const std::vector<double> b = {3.0};
    EXPECT_DOUBLE_EQ(dtwDistance(a, b), 2.0);
    const DtwResult aligned = dtwAlign(a, b);
    ASSERT_EQ(aligned.path.size(), 1u);
    EXPECT_DOUBLE_EQ(aligned.distance, 2.0);
}

TEST(DtwEdge, BandNarrowerThanLengthDifferenceStillAdmitsAPath)
{
    // The requested band (ceil(0.01 * 60) = 1) is far narrower than the
    // length difference of 56; bandHalfWidth must widen it or no
    // monotone path exists and the DP would end at +inf.
    std::vector<double> a(4, 2.0);
    std::vector<double> b(60, 2.0);
    DtwOptions narrow;
    narrow.bandFraction = 0.01;
    const double d = dtwDistance(a, b, narrow);
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(LbKeoghEdge, ConstantSeriesHasZeroVarianceEnvelope)
{
    const std::vector<double> flat(16, 3.5);
    const Envelope env = computeEnvelope(flat, 4);
    ASSERT_EQ(env.lower.size(), flat.size());
    ASSERT_EQ(env.upper.size(), flat.size());
    for (std::size_t i = 0; i < flat.size(); ++i) {
        EXPECT_DOUBLE_EQ(env.lower[i], 3.5);
        EXPECT_DOUBLE_EQ(env.upper[i], 3.5);
    }
    // A degenerate envelope still bounds correctly: the deviation of a
    // shifted constant is per-point distance, matching DTW exactly.
    const std::vector<double> shifted(16, 5.0);
    EXPECT_DOUBLE_EQ(lbKeogh(env, flat), 0.0);
    EXPECT_DOUBLE_EQ(lbKeogh(env, shifted), 16 * 1.5);
    EXPECT_LE(lbKeogh(env, shifted), dtwDistance(flat, shifted));
}

TEST(LbKeoghEdge, LengthOneSeries)
{
    const std::vector<double> point = {2.0};
    const Envelope env = computeEnvelope(point, 3);
    ASSERT_EQ(env.lower.size(), 1u);
    EXPECT_DOUBLE_EQ(env.lower[0], 2.0);
    EXPECT_DOUBLE_EQ(env.upper[0], 2.0);
    const std::vector<double> candidate = {-1.0};
    EXPECT_DOUBLE_EQ(lbKeogh(env, candidate), 3.0);
}

// --- resample ---------------------------------------------------------

TEST(Resample, IdentityWhenSameLength)
{
    const std::vector<double> x = {1, 2, 3, 4};
    EXPECT_EQ(resampleLinear(x, 4), x);
}

TEST(Resample, EndpointsPreserved)
{
    const std::vector<double> x = {10, 0, 0, 0, 20};
    const auto up = resampleLinear(x, 17);
    EXPECT_DOUBLE_EQ(up.front(), 10.0);
    EXPECT_DOUBLE_EQ(up.back(), 20.0);
    EXPECT_EQ(up.size(), 17u);
}

TEST(Resample, LinearInterpolationExactOnLine)
{
    std::vector<double> line;
    for (int i = 0; i <= 10; ++i)
        line.push_back(i);
    const auto resampled = resampleLinear(line, 21);
    for (std::size_t i = 0; i < resampled.size(); ++i)
        EXPECT_NEAR(resampled[i], i * 0.5, 1e-12);
}

TEST(Resample, SingleValueBroadcasts)
{
    const std::vector<double> x = {7.0};
    const auto out = resampleLinear(x, 5);
    for (double v : out)
        EXPECT_DOUBLE_EQ(v, 7.0);
}

// Regression: at (n=4, target=188) the interpolation position for the
// final sample computes as 3.0000000000000004 — truncating past the
// last index. The clamp must pin it to values.back() exactly (and ASan
// must see no out-of-bounds read).
TEST(Resample, ClampsPositionDriftAtPathologicalLengths)
{
    const std::vector<double> x = {10.0, -4.0, 7.0, 42.0};
    const auto out = resampleLinear(x, 188);
    ASSERT_EQ(out.size(), 188u);
    EXPECT_EQ(out.back(), 42.0);
    for (double v : out) {
        EXPECT_GE(v, -4.0);
        EXPECT_LE(v, 42.0);
    }
}

TEST(Resample, OutputStaysWithinInputRangeAcrossLengthSweep)
{
    Rng rng(0xc0ffee);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(2, 64));
        std::vector<double> x(n);
        double lo = 1e300;
        double hi = -1e300;
        for (auto &v : x) {
            v = rng.uniform(-100.0, 100.0);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        // Pathological upsample ratios are where i * scale drifts.
        for (const std::size_t target : {std::size_t{2},
                                         std::size_t{188},
                                         std::size_t{1093},
                                         std::size_t{2999}}) {
            const auto out = resampleLinear(x, target);
            ASSERT_EQ(out.size(), target);
            EXPECT_EQ(out.front(), x.front());
            // The final position may land an ulp *below* the last
            // index (interpolated, inexact) or at/above it (clamped,
            // exact) — either way it must be the last sample to
            // rounding error.
            EXPECT_NEAR(out.back(), x.back(), 1e-10);
            for (double v : out) {
                EXPECT_GE(v, lo - 1e-12);
                EXPECT_LE(v, hi + 1e-12);
            }
        }
    }
}

TEST(Resample, NonPositiveIntervalIsRejectedAtConstruction)
{
    // A zero or negative sampling interval can never reach the
    // resampler (and so can never be divided into a 0/negative
    // interval downstream): TimeSeries refuses to exist with one.
    EXPECT_DEATH(TimeSeries("X", {1, 2, 3}, 0.0), "assertion failed");
    EXPECT_DEATH(TimeSeries("X", {1, 2, 3}, -5.0), "assertion failed");
}

TEST(ResampleEdge, PreconditionsPanic)
{
    const std::vector<double> empty;
    const std::vector<double> some = {1.0, 2.0};
    EXPECT_DEATH(resampleLinear(empty, 4), "assertion failed");
    EXPECT_DEATH(resampleLinear(some, 0), "assertion failed");
}

} // namespace
