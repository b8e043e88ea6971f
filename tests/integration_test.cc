/**
 * @file
 * Integration tests: the CounterMiner facade end-to-end (collect ->
 * clean -> EIR -> interactions), database persistence of pipeline runs,
 * the co-location workflow (Fig. 16 behaviour), and the case-study
 * mechanics (Figs. 13-15).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "core/counterminer.h"
#include "pmu/event.h"
#include "store/database.h"
#include "util/rng.h"
#include "workload/cluster.h"
#include "workload/colocate.h"
#include "workload/suites.h"

namespace {

using namespace cminer;
using namespace cminer::core;
using cminer::util::Rng;

ProfileOptions
fastOptions()
{
    ProfileOptions options;
    options.mlpxRuns = 2;
    options.importance.minEvents = 196; // short EIR for test speed
    return options;
}

TEST(CounterMiner, EndToEndProfileReport)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const auto &bench =
        workload::BenchmarkSuite::instance().byName("wordcount");
    store::Database db;
    CounterMiner miner(db, catalog, fastOptions());
    Rng rng(1);
    const ProfileReport report = miner.profile(bench, rng);

    EXPECT_EQ(report.benchmark, "wordcount");
    // Cleaning reports for every event series of the first run.
    EXPECT_EQ(report.cleaning.size(), 226u);
    // Importance: a full curve and a top-10.
    EXPECT_GE(report.importance.curve.size(), 2u);
    ASSERT_EQ(report.topEvents.size(), 10u);
    // The paper's one-three SMI law: the top event is clearly above the
    // tail of the top-10.
    EXPECT_GT(report.topEvents[0].importance,
              2.0 * report.topEvents[9].importance);
    // Interactions among the top-10: 45 pairs, normalized.
    EXPECT_EQ(report.interactions.pairs.size(), 45u);
    double total = 0.0;
    for (const auto &pair : report.interactions.pairs)
        total += pair.importancePercent;
    EXPECT_NEAR(total, 100.0, 1e-6);
    // Runs were recorded in the database.
    EXPECT_EQ(db.runCount(), 2u);
    EXPECT_EQ(db.findRuns("wordcount", "mlpx").size(), 2u);
}

TEST(CounterMiner, RecoversPlantedDominantEvent)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const auto &bench =
        workload::BenchmarkSuite::instance().byName("DataCaching");
    store::Database db;
    CounterMiner miner(db, catalog, fastOptions());
    Rng rng(2);
    const ProfileReport report = miner.profile(bench, rng);

    std::vector<std::string> top_names;
    for (const auto &fi : report.topEvents)
        top_names.push_back(fi.feature);
    // DataCaching's planted #1 (ISF) must be in the recovered top 5.
    const auto it = std::find(top_names.begin(), top_names.end(), "ISF");
    ASSERT_NE(it, top_names.end());
    EXPECT_LT(it - top_names.begin(), 5);
}

TEST(CounterMiner, SkipCleaningAblationRuns)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const auto &bench =
        workload::BenchmarkSuite::instance().byName("scan");
    store::Database db;
    ProfileOptions options = fastOptions();
    options.skipCleaning = true;
    CounterMiner miner(db, catalog, options);
    Rng rng(3);
    const ProfileReport report = miner.profile(bench, rng);
    EXPECT_TRUE(report.cleaning.empty());
    EXPECT_EQ(report.topEvents.size(), 10u);
}

TEST(CounterMiner, ProfileTracesHandlesColocation)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const auto &suite = workload::BenchmarkSuite::instance();
    const auto &dc = suite.byName("DataCaching");
    const auto &ga = suite.byName("GraphAnalytics");
    store::Database db;
    CounterMiner miner(db, catalog, fastOptions());
    Rng rng(4);

    std::vector<pmu::TrueTrace> traces;
    for (int r = 0; r < 2; ++r)
        traces.push_back(workload::composeColocated(dc, ga, rng));
    const ProfileReport report =
        miner.profileTraces(traces, "DataCaching+GraphAnalytics",
                            "colocated", rng);

    // Fig. 16: L2 events climb into the top-10 for the dissimilar pair.
    std::size_t l2_in_top = 0;
    for (const auto &fi : report.topEvents) {
        if (fi.feature.rfind("L2", 0) == 0)
            ++l2_in_top;
    }
    EXPECT_GE(l2_in_top, 2u)
        << "expected L2 contention events in the co-located top-10";
}

TEST(CounterMiner, SameProgramColocationKeepsProfile)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const auto &suite = workload::BenchmarkSuite::instance();
    const auto &dc = suite.byName("DataCaching");
    store::Database db;
    CounterMiner miner(db, catalog, fastOptions());
    Rng rng(5);

    std::vector<pmu::TrueTrace> traces;
    for (int r = 0; r < 2; ++r)
        traces.push_back(workload::composeColocated(dc, dc, rng));
    const ProfileReport report = miner.profileTraces(
        traces, "DataCaching+DataCaching", "colocated", rng);

    // The paper: two DataCaching instances barely disturb each other —
    // ISF stays on top and L2 events stay out of the top ranks.
    std::vector<std::string> top_names;
    for (const auto &fi : report.topEvents)
        top_names.push_back(fi.feature);
    EXPECT_NE(std::find(top_names.begin(), top_names.end(), "ISF"),
              top_names.end());
    std::size_t l2_in_top = 0;
    for (const auto &name : top_names) {
        if (name.rfind("L2", 0) == 0)
            ++l2_in_top;
    }
    EXPECT_LE(l2_in_top, 1u);
}

TEST(Pipeline, DatabaseSurvivesSaveLoadAfterProfiling)
{
    const std::string path = "/tmp/cminer_integration.cmdb";
    const auto &catalog = pmu::EventCatalog::instance();
    const auto &bench =
        workload::BenchmarkSuite::instance().byName("join");
    {
        store::Database db;
        CounterMiner miner(db, catalog, fastOptions());
        Rng rng(6);
        miner.profile(bench, rng);
        db.save(path);
    }
    const store::Database loaded = store::Database::load(path);
    EXPECT_EQ(loaded.runCount(), 2u);
    const auto runs = loaded.findRuns("join", "mlpx");
    ASSERT_EQ(runs.size(), 2u);
    // IPC series persisted alongside events.
    const auto ipc = loaded.seriesValues(runs[0], "IPC");
    EXPECT_GT(ipc.size(), 0u);
    std::filesystem::remove(path);
}

// --- case-study mechanics (Figs. 13-15) ------------------------------------

TEST(CaseStudy, TuningDominantParamMovesRuntimeMore)
{
    // Fig. 14: for sort, sweeping bbs swings execution time far more
    // than sweeping nwt.
    const auto &bench =
        workload::BenchmarkSuite::instance().byName("sort");
    workload::SimulatedCluster cluster;
    Rng rng(7);

    auto sweep_range = [&](const char *param,
                           const std::vector<double> &values) {
        double lo = 1e300;
        double hi = 0.0;
        for (double v : values) {
            workload::SparkConfig config;
            config.set(param, v);
            double total = 0.0;
            for (int rep = 0; rep < 6; ++rep)
                total += cluster.runJobTimeOnly(bench, config, rng);
            const double avg = total / 6.0;
            lo = std::min(lo, avg);
            hi = std::max(hi, avg);
        }
        return (hi - lo) / lo * 100.0;
    };

    const double bbs_variation =
        sweep_range("bbs", {1, 2, 4, 8, 16, 32});
    const double nwt_variation =
        sweep_range("nwt", {30, 60, 120, 240, 480, 600});
    EXPECT_GT(bbs_variation, 1.8 * nwt_variation)
        << "bbs " << bbs_variation << "% vs nwt " << nwt_variation << "%";
}

TEST(CaseStudy, MethodANeedsFewerRunsThanMethodB)
{
    // Fig. 15's core arithmetic: method B gets one training example per
    // run; method A gets one per sampled interval.
    const auto &bench =
        workload::BenchmarkSuite::instance().byName("pagerank");
    Rng rng(8);
    const auto trace = bench.generateTrace(rng);
    const std::size_t examples_per_run_a = trace.intervalCount();
    const std::size_t examples_per_run_b = 1;
    EXPECT_GT(examples_per_run_a, 100 * examples_per_run_b);
}

TEST(Schedule, OcoeCoverageCostMatchesPaperScaling)
{
    // Covering all 226 programmable events with OCOE on 4 counters
    // takes ceil(226/4) = 57 runs *per repetition* — the cost that
    // motivates MLPX in the first place.
    const auto &catalog = pmu::EventCatalog::instance();
    const pmu::OcoePlan plan(catalog.programmableEvents(), 4);
    EXPECT_EQ(plan.runCount(), 57u);
}

} // namespace
