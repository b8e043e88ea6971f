/**
 * @file
 * The determinism contract of the parallel mining pipeline: every stage
 * wired onto the thread pool — SGBRT fitting/prediction, the EIR loop
 * with concurrent CV folds, KNN imputation, the cleaner batch, and the
 * pairwise interaction ranker — must produce **bit-identical** output
 * for any thread count. Each test runs a fixed-seed synthetic workload
 * at 1, 2, and 7 threads and compares results with exact (==) double
 * comparisons.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/cleaner.h"
#include "core/importance.h"
#include "core/interaction.h"
#include "ml/dataset.h"
#include "ml/gbrt.h"
#include "ml/knn.h"
#include "support/test_support.h"
#include "ts/time_series.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace cminer;
using cminer::util::Rng;
using cminer::test::ThreadCountGuard;

constexpr std::size_t kThreadCounts[] = {1, 2, 7};

/** Fixed-seed nonlinear regression dataset (events -> IPC shape). */
ml::Dataset
syntheticDataset(std::size_t features, std::size_t rows,
                 std::uint64_t seed)
{
    std::vector<std::string> names;
    for (std::size_t f = 0; f < features; ++f)
        names.push_back("e" + std::to_string(f));
    ml::Dataset data(names);
    Rng rng(seed);
    for (std::size_t r = 0; r < rows; ++r) {
        std::vector<double> row(features);
        for (auto &v : row)
            v = rng.uniform(0.0, 10.0);
        double target = 2.0 * row[0] - 0.5 * row[1 % features] +
                        0.3 * row[0] * row[2 % features] +
                        std::sin(row[3 % features]) +
                        0.1 * rng.gaussian();
        data.addRow(std::move(row), target);
    }
    return data;
}

template <typename T>
void
expectIdentical(const std::vector<T> &baseline,
                const std::vector<T> &candidate, std::size_t threads,
                const char *what)
{
    ASSERT_EQ(baseline.size(), candidate.size())
        << what << " size diverged at " << threads << " threads";
    for (std::size_t i = 0; i < baseline.size(); ++i)
        EXPECT_EQ(baseline[i], candidate[i])
            << what << "[" << i << "] diverged at " << threads
            << " threads";
}

// --- SGBRT ---------------------------------------------------------------

struct GbrtOutputs
{
    std::vector<std::string> order;
    std::vector<double> importances;
    std::vector<double> predictions;
};

GbrtOutputs
runGbrt(std::size_t threads)
{
    ThreadCountGuard guard(threads);
    const auto data = syntheticDataset(8, 96, 123);
    ml::GbrtParams params;
    params.treeCount = 25;
    ml::Gbrt model(params);
    Rng rng(7);
    model.fit(data, rng);

    GbrtOutputs out;
    for (const auto &fi : model.featureImportances()) {
        out.order.push_back(fi.feature);
        out.importances.push_back(fi.importance);
    }
    out.predictions = model.predictAll(data);
    return out;
}

TEST(Determinism, GbrtFitAndPredictBitIdenticalAcrossThreadCounts)
{
    const auto baseline = runGbrt(1);
    ASSERT_EQ(baseline.order.size(), 8u);
    for (std::size_t threads : kThreadCounts) {
        const auto run = runGbrt(threads);
        expectIdentical(baseline.order, run.order, threads,
                        "importance order");
        expectIdentical(baseline.importances, run.importances, threads,
                        "importance");
        expectIdentical(baseline.predictions, run.predictions, threads,
                        "prediction");
    }
}

// --- EIR with concurrent CV folds ----------------------------------------

struct EirOutputs
{
    std::vector<double> curve;
    std::vector<std::string> ranking;
    std::vector<double> percents;
    double mapmError = 0.0;
    std::size_t mapmEvents = 0;
};

EirOutputs
runEir(std::size_t threads)
{
    ThreadCountGuard guard(threads);
    const auto data = syntheticDataset(10, 80, 321);
    core::ImportanceOptions options;
    options.gbrt.treeCount = 15;
    options.dropPerIteration = 2;
    options.minEvents = 4;
    options.cvFolds = 2;
    const core::ImportanceRanker ranker(options);
    Rng rng(11);
    const auto result = ranker.run(data, rng);

    EirOutputs out;
    for (const auto &point : result.curve)
        out.curve.push_back(point.testErrorPercent);
    for (const auto &fi : result.ranking) {
        out.ranking.push_back(fi.feature);
        out.percents.push_back(fi.importance);
    }
    out.mapmError = result.mapmErrorPercent;
    out.mapmEvents = result.mapmEventCount;
    return out;
}

TEST(Determinism, EirCrossValidationBitIdenticalAcrossThreadCounts)
{
    const auto baseline = runEir(1);
    ASSERT_GE(baseline.curve.size(), 2u);
    for (std::size_t threads : kThreadCounts) {
        const auto run = runEir(threads);
        expectIdentical(baseline.curve, run.curve, threads, "EIR curve");
        expectIdentical(baseline.ranking, run.ranking, threads,
                        "EIR ranking");
        expectIdentical(baseline.percents, run.percents, threads,
                        "EIR percent");
        EXPECT_EQ(baseline.mapmError, run.mapmError);
        EXPECT_EQ(baseline.mapmEvents, run.mapmEvents);
    }
}

// --- KNN imputation -------------------------------------------------------

std::vector<double>
runImpute(std::size_t threads)
{
    ThreadCountGuard guard(threads);
    Rng rng(55);
    std::vector<double> values(240);
    for (auto &v : values)
        v = rng.uniform(10.0, 20.0);
    std::vector<std::size_t> missing;
    for (std::size_t i = 3; i < values.size(); i += 9)
        missing.push_back(i);
    for (std::size_t idx : missing)
        values[idx] = 0.0;
    const std::size_t imputed = ml::knnImputeSeries(values, missing, 5);
    EXPECT_EQ(imputed, missing.size());
    return values;
}

TEST(Determinism, KnnImputerBitIdenticalAcrossThreadCounts)
{
    const auto baseline = runImpute(1);
    for (std::size_t threads : kThreadCounts)
        expectIdentical(baseline, runImpute(threads), threads,
                        "imputed series");
}

// --- cleaner batch --------------------------------------------------------

std::vector<double>
runCleaner(std::size_t threads)
{
    ThreadCountGuard guard(threads);
    Rng rng(91);
    std::vector<ts::TimeSeries> batch;
    for (int s = 0; s < 6; ++s) {
        std::vector<double> values(160);
        for (auto &v : values)
            v = std::max(0.1, rng.gaussian(300.0 + 50.0 * s, 20.0));
        values[12] = 0.0;                       // missing
        values[80] = 0.0;                       // missing
        values[40] = 5000.0 + 100.0 * s;        // outlier
        batch.emplace_back("S" + std::to_string(s), values);
    }
    const core::DataCleaner cleaner;
    const auto reports = cleaner.cleanAll(batch);
    std::vector<double> flat;
    for (std::size_t s = 0; s < batch.size(); ++s) {
        EXPECT_EQ(reports[s].event, batch[s].eventName());
        for (std::size_t i = 0; i < batch[s].size(); ++i)
            flat.push_back(batch[s].at(i));
    }
    return flat;
}

TEST(Determinism, CleanerBatchBitIdenticalAcrossThreadCounts)
{
    const auto baseline = runCleaner(1);
    for (std::size_t threads : kThreadCounts)
        expectIdentical(baseline, runCleaner(threads), threads,
                        "cleaned values");
}

// --- interaction ranker ---------------------------------------------------

struct InteractionOutputs
{
    std::vector<std::string> pairs;
    std::vector<double> variances;
    std::vector<double> percents;
};

InteractionOutputs
runInteraction(std::size_t threads)
{
    ThreadCountGuard guard(threads);
    const auto data = syntheticDataset(6, 96, 987);
    ml::GbrtParams params;
    params.treeCount = 20;
    ml::Gbrt model(params);
    Rng rng(13);
    model.fit(data, rng);

    core::InteractionOptions options;
    options.topEvents = 4;
    const core::InteractionRanker ranker(options);
    const auto result =
        ranker.rankTopEvents(model, data, {"e0", "e1", "e2", "e3"});

    InteractionOutputs out;
    for (const auto &pair : result.pairs) {
        out.pairs.push_back(pair.first + "-" + pair.second);
        out.variances.push_back(pair.residualVariance);
        out.percents.push_back(pair.importancePercent);
    }
    return out;
}

TEST(Determinism, InteractionRankerBitIdenticalAcrossThreadCounts)
{
    const auto baseline = runInteraction(1);
    ASSERT_EQ(baseline.pairs.size(), 6u); // C(4, 2)
    for (std::size_t threads : kThreadCounts) {
        const auto run = runInteraction(threads);
        expectIdentical(baseline.pairs, run.pairs, threads, "pair order");
        expectIdentical(baseline.variances, run.variances, threads,
                        "residual variance");
        expectIdentical(baseline.percents, run.percents, threads,
                        "interaction percent");
    }
}

} // namespace
