/**
 * @file
 * Tests for the importance ranker: dataset assembly from collected runs,
 * single-fit ranking quality against the planted ground truth, the EIR
 * loop's bookkeeping (curve, MAPM selection, monotone feature shrink),
 * and MAPM retraining.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/cleaner.h"
#include "core/collector.h"
#include "core/importance.h"
#include "pmu/event.h"
#include "store/database.h"
#include "util/rng.h"
#include "workload/suites.h"

namespace {

using namespace cminer;
using namespace cminer::core;
using cminer::util::Rng;

/** Collect and clean MLPX runs over all programmable events. */
std::vector<CollectedRun>
collectRuns(const std::string &benchmark, int run_count, Rng &rng,
            store::Database &db)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const auto &bench =
        workload::BenchmarkSuite::instance().byName(benchmark);
    DataCollector collector(db, catalog);
    DataCleaner cleaner;
    std::vector<CollectedRun> runs;
    const auto events = catalog.programmableEvents();
    for (int r = 0; r < run_count; ++r) {
        auto run = collector.collectMlpx(bench, events, rng);
        for (std::size_t s = 0; s + 1 < run.series.size(); ++s)
            cleaner.clean(run.series[s]);
        runs.push_back(std::move(run));
    }
    return runs;
}

TEST(ImportanceDataset, ShapeAndNames)
{
    store::Database db;
    Rng rng(1);
    const auto runs = collectRuns("wordcount", 2, rng, db);
    const auto data = ImportanceRanker::buildDataset(
        runs, pmu::EventCatalog::instance());
    EXPECT_EQ(data.featureCount(), 226u); // programmable events
    std::size_t expected_rows = 0;
    for (const auto &run : runs)
        expected_rows += run.ipc().size();
    EXPECT_EQ(data.rowCount(), expected_rows);
    // Features carry paper abbreviations.
    EXPECT_NO_THROW(data.featureIndex("ISF"));
    EXPECT_NO_THROW(data.featureIndex("BRB"));
    // Targets are IPC-scaled.
    for (std::size_t r = 0; r < data.rowCount(); r += 101) {
        EXPECT_GT(data.target(r), 0.0);
        EXPECT_LT(data.target(r), 5.1);
    }
}

TEST(ImportanceRanker, SingleFitAccuracy)
{
    store::Database db;
    Rng rng(2);
    const auto runs = collectRuns("kmeans", 2, rng, db);
    const auto data = ImportanceRanker::buildDataset(
        runs, pmu::EventCatalog::instance());
    ImportanceRanker ranker;
    const auto [ranking, error] = ranker.fitOnce(data, rng);
    EXPECT_LT(error, 15.0) << "model error (Eq. 14) too high";
    EXPECT_EQ(ranking.size(), data.featureCount());
    double total = 0.0;
    for (const auto &fi : ranking)
        total += fi.importance;
    EXPECT_NEAR(total, 100.0, 1e-6);
}

TEST(ImportanceRanker, RecoversDominantPlantedEvents)
{
    store::Database db;
    Rng rng(3);
    const auto runs = collectRuns("DataCaching", 3, rng, db);
    const auto data = ImportanceRanker::buildDataset(
        runs, pmu::EventCatalog::instance());
    ImportanceRanker ranker;
    const auto [ranking, error] = ranker.fitOnce(data, rng);

    const auto &bench =
        workload::BenchmarkSuite::instance().byName("DataCaching");
    // The clearly dominant planted event must rank near the top.
    const auto planted = bench.plantedRanking(1);
    std::vector<std::string> recovered_top;
    for (std::size_t i = 0; i < 15; ++i)
        recovered_top.push_back(ranking[i].feature);
    const auto it = std::find(recovered_top.begin(), recovered_top.end(),
                              planted[0]);
    ASSERT_NE(it, recovered_top.end())
        << "dominant event " << planted[0] << " not recovered";
    EXPECT_LT(it - recovered_top.begin(), 5);
    // Most of the planted top-10 should sit in the recovered top-15.
    std::size_t hits = 0;
    for (const auto &event : bench.plantedRanking(10)) {
        if (std::find(recovered_top.begin(), recovered_top.end(),
                      event) != recovered_top.end())
            ++hits;
    }
    EXPECT_GE(hits, 6u);
}

TEST(ImportanceRanker, NoiseEventsRankLow)
{
    store::Database db;
    Rng rng(4);
    const auto runs = collectRuns("scan", 3, rng, db);
    const auto data = ImportanceRanker::buildDataset(
        runs, pmu::EventCatalog::instance());
    ImportanceRanker ranker;
    const auto [ranking, error] = ranker.fitOnce(data, rng);
    const auto &bench =
        workload::BenchmarkSuite::instance().byName("scan");
    // The bottom third of the recovered ranking should carry almost no
    // planted weight.
    double bottom_weight = 0.0;
    for (std::size_t i = ranking.size() * 2 / 3; i < ranking.size(); ++i)
        bottom_weight += bench.plantedImportance(ranking[i].feature);
    EXPECT_LT(bottom_weight, 30.0);
}

TEST(Eir, CurveAndMapmBookkeeping)
{
    store::Database db;
    Rng rng(5);
    const auto runs = collectRuns("bayes", 2, rng, db);
    const auto data = ImportanceRanker::buildDataset(
        runs, pmu::EventCatalog::instance());
    ImportanceOptions options;
    options.minEvents = 150; // short loop for test speed
    ImportanceRanker ranker(options);
    const auto result = ranker.run(data, rng);

    ASSERT_GE(result.curve.size(), 2u);
    // Counts shrink by exactly dropPerIteration each step.
    for (std::size_t i = 1; i < result.curve.size(); ++i) {
        EXPECT_EQ(result.curve[i - 1].eventCount,
                  result.curve[i].eventCount + options.dropPerIteration);
    }
    // The reported MAPM is the curve's minimum.
    double min_error = result.curve.front().testErrorPercent;
    for (const auto &point : result.curve)
        min_error = std::min(min_error, point.testErrorPercent);
    EXPECT_DOUBLE_EQ(result.mapmErrorPercent, min_error);
    EXPECT_EQ(result.mapmFeatures.size(), result.mapmEventCount);
    EXPECT_EQ(result.ranking.size(), result.mapmEventCount);
}

TEST(Eir, DropsLeastImportantEvents)
{
    store::Database db;
    Rng rng(6);
    const auto runs = collectRuns("join", 2, rng, db);
    const auto data = ImportanceRanker::buildDataset(
        runs, pmu::EventCatalog::instance());
    ImportanceOptions options;
    options.minEvents = 196;
    ImportanceRanker ranker(options);
    const auto result = ranker.run(data, rng);
    // Dominant planted events must survive the pruning.
    const auto &bench =
        workload::BenchmarkSuite::instance().byName("join");
    const std::set<std::string> kept(result.mapmFeatures.begin(),
                                     result.mapmFeatures.end());
    for (const auto &event : bench.plantedRanking(3))
        EXPECT_TRUE(kept.count(event)) << event << " was pruned";
}

TEST(Eir, MapmModelPredictsWell)
{
    store::Database db;
    Rng rng(7);
    const auto runs = collectRuns("aggregation", 2, rng, db);
    const auto data = ImportanceRanker::buildDataset(
        runs, pmu::EventCatalog::instance());
    ImportanceOptions options;
    options.minEvents = 196;
    ImportanceRanker ranker(options);
    const auto result = ranker.run(data, rng);
    const auto mapm = ranker.trainMapm(data, result, rng);
    EXPECT_TRUE(mapm.fitted());
    // The retrained MAPM predicts within a sane band on training rows.
    const auto mapm_data = data.project(result.mapmFeatures);
    const auto predicted = mapm.predictAll(mapm_data);
    double total_err = 0.0;
    std::size_t used = 0;
    for (std::size_t r = 0; r < mapm_data.rowCount(); ++r) {
        total_err += std::abs(predicted[r] - mapm_data.target(r)) /
                     mapm_data.target(r);
        ++used;
    }
    EXPECT_LT(100.0 * total_err / static_cast<double>(used), 12.0);
}

TEST(ImportanceOptions, ValidationAndDefaults)
{
    ImportanceOptions options;
    EXPECT_EQ(options.dropPerIteration, 10u);
}

} // namespace
