/**
 * @file
 * Tests for the interaction ranker: Eq. 12/13 bookkeeping, isolation of
 * genuine two-way interactions from additive nonlinearity, recovery of a
 * planted product term, behaviour on the full pipeline's MAPM, and
 * bitwise agreement of the shared univariate probes with a
 * three-probes-per-pair reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/interaction.h"
#include "ml/dataset_view.h"
#include "ml/gbrt.h"
#include "ml/linear_regression.h"
#include "ml/metrics.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace cminer::core;
using cminer::ml::Dataset;
using cminer::ml::DatasetView;
using cminer::ml::Gbrt;
using cminer::ml::GbrtParams;
using cminer::util::FatalError;
using cminer::util::Parallelism;
using cminer::util::Rng;

/**
 * Synthetic oracle data: y = f(a) + g(b) + w * c * d with independent
 * standard-normal features. Only (c, d) truly interact.
 */
Dataset
syntheticData(double interaction_weight, std::size_t rows,
              std::uint64_t seed)
{
    Dataset data({"a", "b", "c", "d", "e"});
    Rng rng(seed);
    for (std::size_t i = 0; i < rows; ++i) {
        const double a = rng.gaussian();
        const double b = rng.gaussian();
        const double c = rng.gaussian();
        const double d = rng.gaussian();
        const double e = rng.gaussian();
        const double y = std::sin(a) + 0.5 * b * b +
                         interaction_weight * c * d +
                         rng.gaussian(0.0, 0.02);
        data.addRow({a, b, c, d, e}, y);
    }
    return data;
}

Gbrt
fitOracle(const Dataset &data, std::uint64_t seed)
{
    GbrtParams params;
    params.treeCount = 250;
    params.tree.maxDepth = 5;
    params.tree.featureFraction = 1.0;
    Gbrt model(params);
    Rng rng(seed);
    model.fit(data, rng);
    return model;
}

TEST(InteractionRanker, NormalizationSumsTo100)
{
    const Dataset data = syntheticData(1.0, 1200, 1);
    const Gbrt model = fitOracle(data, 2);
    InteractionRanker ranker;
    const auto result = ranker.rankTopEvents(model, data,
                                             {"a", "b", "c", "d", "e"});
    EXPECT_EQ(result.pairs.size(), 10u); // C(5,2)
    double total = 0.0;
    for (const auto &pair : result.pairs) {
        EXPECT_GE(pair.residualVariance, 0.0);
        total += pair.importancePercent;
    }
    EXPECT_NEAR(total, 100.0, 1e-6);
    // Sorted descending.
    for (std::size_t i = 1; i < result.pairs.size(); ++i)
        EXPECT_GE(result.pairs[i - 1].importancePercent,
                  result.pairs[i].importancePercent);
}

TEST(InteractionRanker, RecoversPlantedProductPair)
{
    const Dataset data = syntheticData(1.2, 1500, 3);
    const Gbrt model = fitOracle(data, 4);
    InteractionRanker ranker;
    const auto result = ranker.rankTopEvents(model, data,
                                             {"a", "b", "c", "d", "e"});
    const auto &top = result.pairs.front();
    const bool is_cd = (top.first == "c" && top.second == "d") ||
                       (top.first == "d" && top.second == "c");
    EXPECT_TRUE(is_cd) << "top pair was " << top.first << "-"
                       << top.second;
    // And by a clear margin.
    EXPECT_GT(result.pairs[0].importancePercent,
              2.0 * result.pairs[1].importancePercent);
}

TEST(InteractionRanker, AdditiveNonlinearityDoesNotFakeInteraction)
{
    // No interaction at all, but strong additive nonlinearity in a, b.
    const Dataset data = syntheticData(0.0, 1500, 5);
    const Gbrt model = fitOracle(data, 6);
    InteractionRanker ranker;
    const auto result = ranker.rankTopEvents(model, data,
                                             {"a", "b", "c", "d", "e"});
    // Without true interaction, no pair should dominate strongly; the
    // pair (a, b) of the two nonlinear features in particular must not
    // eat the whole budget.
    for (const auto &pair : result.pairs) {
        EXPECT_LT(pair.importancePercent, 60.0)
            << pair.first << "-" << pair.second;
    }
}

TEST(InteractionRanker, StrongerPlantsScoreHigher)
{
    // Two datasets with different interaction strengths: the relative
    // residual variance of the c-d pair must scale up.
    const Dataset weak_data = syntheticData(0.4, 1500, 7);
    const Dataset strong_data = syntheticData(1.6, 1500, 7);
    const Gbrt weak_model = fitOracle(weak_data, 8);
    const Gbrt strong_model = fitOracle(strong_data, 8);
    InteractionRanker ranker;

    auto cd_share = [&](const Gbrt &model, const Dataset &data) {
        const auto result = ranker.rankTopEvents(
            model, data, {"a", "b", "c", "d", "e"});
        for (const auto &pair : result.pairs) {
            if ((pair.first == "c" && pair.second == "d") ||
                (pair.first == "d" && pair.second == "c"))
                return pair.importancePercent;
        }
        return 0.0;
    };
    EXPECT_GT(cd_share(strong_model, strong_data),
              cd_share(weak_model, weak_data));
}

TEST(InteractionRanker, ExplicitPairListRespected)
{
    const Dataset data = syntheticData(1.0, 800, 9);
    const Gbrt model = fitOracle(data, 10);
    InteractionRanker ranker;
    const auto result =
        ranker.rankPairs(model, data, {{"c", "d"}, {"a", "e"}});
    ASSERT_EQ(result.pairs.size(), 2u);
    EXPECT_EQ(result.pairs[0].first, "c");
    EXPECT_EQ(result.pairs[0].second, "d");
    EXPECT_GT(result.pairs[0].importancePercent,
              result.pairs[1].importancePercent);
}

TEST(InteractionRanker, TiedPairsRankInLexicographicOrder)
{
    // A constant target makes the oracle fit zero trees, so every
    // pair sees identical probe data and lands on exactly the same
    // intensity — the whole ranking is one big tie. std::sort is
    // unstable: without the name-pair secondary key the exported order
    // varied across STL implementations. It must be lexicographic,
    // always.
    Dataset data({"d", "b", "a", "c"});
    Rng rng(21);
    for (int i = 0; i < 200; ++i)
        data.addRow({rng.gaussian(), rng.gaussian(), rng.gaussian(),
                     rng.gaussian()},
                    5.0);
    Gbrt model;
    Rng fit_rng(22);
    model.fit(data, fit_rng);

    InteractionRanker ranker;
    const auto result =
        ranker.rankTopEvents(model, data, {"a", "b", "c", "d"});
    ASSERT_EQ(result.pairs.size(), 6u);
    for (const auto &pair : result.pairs)
        EXPECT_DOUBLE_EQ(pair.importancePercent,
                         result.pairs.front().importancePercent);
    std::vector<std::pair<std::string, std::string>> order;
    for (const auto &pair : result.pairs)
        order.emplace_back(pair.first, pair.second);
    const std::vector<std::pair<std::string, std::string>> expected = {
        {"a", "b"}, {"a", "c"}, {"a", "d"},
        {"b", "c"}, {"b", "d"}, {"c", "d"}};
    EXPECT_EQ(order, expected);
}

/**
 * Eq. 12 for one pair the direct way: three model probes per sampled
 * row (the pair jointly, then each event alone with the other at its
 * mean), sampling rows as the ranker does. The bitwise reference for
 * rankPairs, which probes each event's univariate response only once.
 */
double
threeProbeResidualVariance(const Gbrt &model, const Dataset &data,
                           const std::string &name_a,
                           const std::string &name_b,
                           std::size_t max_samples)
{
    const DatasetView view(data);
    const std::vector<double> means = view.featureMeans();
    const std::size_t idx_a = view.featureIndex(name_a);
    const std::size_t idx_b = view.featureIndex(name_b);
    const std::size_t stride =
        std::max<std::size_t>(1, view.rowCount() / max_samples);

    Dataset pair_data({name_a, name_b});
    std::vector<double> joints;
    for (std::size_t r = 0; r < view.rowCount(); r += stride) {
        std::vector<double> probe = means;
        probe[idx_a] = view.value(r, idx_a);
        probe[idx_b] = view.value(r, idx_b);
        const double joint = model.predict(probe);
        probe[idx_b] = means[idx_b];
        const double alone_a = model.predict(probe);
        probe[idx_a] = means[idx_a];
        probe[idx_b] = view.value(r, idx_b);
        const double alone_b = model.predict(probe);
        pair_data.addRow({alone_a, alone_b}, joint);
        joints.push_back(joint);
    }
    cminer::ml::LinearRegression linear;
    linear.fit(pair_data);
    return cminer::ml::residualVariance(joints,
                                        linear.predictAll(pair_data));
}

TEST(InteractionRanker, SharedProbesMatchThreeProbeReferenceBitwise)
{
    const Dataset data = syntheticData(1.0, 700, 13);
    const Gbrt model = fitOracle(data, 14);
    // Overlapping pairs share events, so they share univariate
    // responses; reversed pairs swap which response is which column.
    const std::vector<std::pair<std::string, std::string>> pairs = {
        {"c", "d"}, {"d", "c"}, {"a", "c"}, {"c", "a"},
        {"b", "e"}, {"e", "a"}, {"d", "b"}};
    InteractionOptions options;
    options.maxSamples = 300; // stride 2: the sampled rows matter too
    const InteractionRanker ranker(options);

    std::map<std::pair<std::string, std::string>, double> expected;
    for (const auto &[a, b] : pairs)
        expected[{a, b}] = threeProbeResidualVariance(
            model, data, a, b, options.maxSamples);

    for (std::size_t threads : {1u, 2u, 8u}) {
        Parallelism::setThreadCount(threads);
        const auto result = ranker.rankPairs(model, data, pairs);
        Parallelism::setThreadCount(0);
        ASSERT_EQ(result.pairs.size(), pairs.size());
        for (const auto &pair : result.pairs) {
            EXPECT_EQ(pair.residualVariance,
                      expected.at({pair.first, pair.second}))
                << pair.first << "-" << pair.second << " at " << threads
                << " threads";
        }
    }
}

TEST(InteractionRanker, PairNamingOneEventTwiceIsRejected)
{
    const Dataset data = syntheticData(1.0, 200, 15);
    const Gbrt model = fitOracle(data, 16);
    const InteractionRanker ranker;
    try {
        ranker.rankPairs(model, data, {{"c", "d"}, {"a", "a"}});
        FAIL() << "expected a fatal error";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("pair (a, a) names one event "
                                             "twice"),
                  std::string::npos)
            << e.what();
    }
}

TEST(InteractionResult, TopReturnsPrefix)
{
    InteractionResult result;
    result.pairs = {{"a", "b", 1.0, 50.0},
                    {"c", "d", 0.5, 30.0},
                    {"e", "f", 0.2, 20.0}};
    const auto top2 = result.top(2);
    ASSERT_EQ(top2.size(), 2u);
    EXPECT_EQ(top2[1].first, "c");
    EXPECT_EQ(result.top(10).size(), 3u);
}

TEST(InteractionRanker, SampleStrideCoversLongDatasets)
{
    // maxSamples smaller than the dataset forces stride sampling; the
    // ranking must still find the planted pair.
    const Dataset data = syntheticData(1.2, 4000, 11);
    const Gbrt model = fitOracle(data, 12);
    InteractionOptions options;
    options.maxSamples = 100;
    InteractionRanker ranker(options);
    const auto result = ranker.rankTopEvents(model, data,
                                             {"a", "b", "c", "d", "e"});
    const auto &top = result.pairs.front();
    const bool is_cd = (top.first == "c" && top.second == "d") ||
                       (top.first == "d" && top.second == "c");
    EXPECT_TRUE(is_cd);
}

} // namespace
