/**
 * @file
 * Tests for the series statistics added for fleet analysis:
 * autocorrelation, the two-sample KS test and Spearman's rank
 * correlation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/series_stats.h"
#include "util/rng.h"

namespace {

using namespace cminer;
using cminer::util::Rng;

// --- series stats ---------------------------------------------------------

TEST(SeriesStats, AutocorrelationOfAr1MatchesRho)
{
    Rng rng(1);
    std::vector<double> series(20000);
    double x = 0.0;
    const double rho = 0.7;
    for (auto &v : series) {
        x = rho * x + rng.gaussian();
        v = x;
    }
    EXPECT_NEAR(stats::autocorrelation(series, 1), rho, 0.03);
    EXPECT_NEAR(stats::autocorrelation(series, 2), rho * rho, 0.04);
}

TEST(SeriesStats, WhiteNoiseUncorrelated)
{
    Rng rng(2);
    std::vector<double> series(20000);
    for (auto &v : series)
        v = rng.gaussian();
    EXPECT_NEAR(stats::autocorrelation(series, 1), 0.0, 0.03);
    EXPECT_NEAR(stats::autocorrelation(series, 10), 0.0, 0.03);
}

TEST(SeriesStats, ConstantSeriesZeroAutocorrelation)
{
    const std::vector<double> series(100, 5.0);
    EXPECT_DOUBLE_EQ(stats::autocorrelation(series, 1), 0.0);
}

TEST(SeriesStats, AcfLengthAndDecay)
{
    Rng rng(3);
    std::vector<double> series(5000);
    double x = 0.0;
    for (auto &v : series) {
        x = 0.8 * x + rng.gaussian();
        v = x;
    }
    const auto correlations = stats::acf(series, 10);
    ASSERT_EQ(correlations.size(), 10u);
    EXPECT_GT(correlations[0], correlations[7]);
}

TEST(KsTest, SameDistributionNotRejected)
{
    Rng rng(4);
    std::vector<double> a(800);
    std::vector<double> b(800);
    for (auto &v : a)
        v = rng.gaussian(10.0, 2.0);
    for (auto &v : b)
        v = rng.gaussian(10.0, 2.0);
    const auto result = stats::ksTwoSample(a, b);
    EXPECT_GT(result.pValue, 0.05);
    EXPECT_LT(result.statistic, 0.1);
}

TEST(KsTest, ShiftedDistributionRejected)
{
    Rng rng(5);
    std::vector<double> a(800);
    std::vector<double> b(800);
    for (auto &v : a)
        v = rng.gaussian(10.0, 2.0);
    for (auto &v : b)
        v = rng.gaussian(12.0, 2.0);
    const auto result = stats::ksTwoSample(a, b);
    EXPECT_LT(result.pValue, 0.01);
    EXPECT_GT(result.statistic, 0.2);
}

TEST(KsTest, IdenticalSamplesStatisticZero)
{
    const std::vector<double> a = {1, 2, 3, 4, 5};
    const auto result = stats::ksTwoSample(a, a);
    EXPECT_DOUBLE_EQ(result.statistic, 0.0);
    EXPECT_NEAR(result.pValue, 1.0, 1e-6);
}

TEST(Spearman, PerfectAndReversedOrder)
{
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y_same = {10, 20, 30, 40, 50};
    const std::vector<double> y_rev = {50, 40, 30, 20, 10};
    EXPECT_NEAR(stats::spearman(x, y_same), 1.0, 1e-12);
    EXPECT_NEAR(stats::spearman(x, y_rev), -1.0, 1e-12);
}

TEST(Spearman, MonotoneNonlinearStillPerfect)
{
    std::vector<double> x;
    std::vector<double> y;
    for (int i = 1; i <= 30; ++i) {
        x.push_back(i);
        y.push_back(std::exp(0.3 * i)); // monotone, very nonlinear
    }
    EXPECT_NEAR(stats::spearman(x, y), 1.0, 1e-12);
}

TEST(Spearman, TiesGetAverageRanks)
{
    const std::vector<double> x = {1, 2, 2, 3};
    const std::vector<double> y = {1, 2, 2, 3};
    EXPECT_NEAR(stats::spearman(x, y), 1.0, 1e-12);
}

TEST(Spearman, IndependentSamplesNearZero)
{
    Rng rng(9);
    std::vector<double> x(2000);
    std::vector<double> y(2000);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = rng.gaussian();
        y[i] = rng.gaussian();
    }
    EXPECT_NEAR(stats::spearman(x, y), 0.0, 0.06);
}

} // namespace
