/**
 * @file
 * Tests for Spearman's rank correlation, which compares importance
 * rankings across fleet profilings.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/series_stats.h"
#include "util/rng.h"

namespace {

using namespace cminer;
using cminer::util::Rng;

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
