/**
 * @file
 * Tests for the extension modules: LB_Keogh-accelerated nearest-neighbor
 * DTW and z-normalization, perf-style text interop, the optimization
 * advisor, permutation importance, and the database query layer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/advisor.h"
#include "core/baselines.h"
#include "core/perf_text.h"
#include "ml/permutation.h"
#include "pmu/event.h"
#include "store/query.h"
#include "ts/dtw.h"
#include "ts/lb_keogh.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace cminer;
using cminer::ts::TimeSeries;
using cminer::util::FatalError;
using cminer::util::Rng;

// --- LB_Keogh / z-normalization --------------------------------------------

std::vector<double>
noisySine(std::size_t n, double phase, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i)
        values[i] = std::sin(0.1 * static_cast<double>(i) + phase) +
                    rng.gaussian(0.0, 0.02);
    return values;
}

TEST(LbKeogh, EnvelopeContainsSeries)
{
    const auto values = noisySine(100, 0.0, 1);
    const auto envelope = ts::computeEnvelope(values, 5);
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_LE(envelope.lower[i], values[i]);
        EXPECT_GE(envelope.upper[i], values[i]);
    }
}

TEST(LbKeogh, WiderRadiusWidensEnvelope)
{
    const auto values = noisySine(100, 0.0, 2);
    const auto narrow = ts::computeEnvelope(values, 2);
    const auto wide = ts::computeEnvelope(values, 10);
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_LE(wide.lower[i], narrow.lower[i]);
        EXPECT_GE(wide.upper[i], narrow.upper[i]);
    }
}

TEST(LbKeogh, IsLowerBoundOfBandedDtw)
{
    // Property check across several random pairs.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto a = noisySine(120, 0.0, seed);
        const auto b = noisySine(120, 0.4, seed + 100);
        const std::size_t radius = 13; // ceil(0.1 * 120) + 1
        const auto envelope = ts::computeEnvelope(a, radius);
        ts::DtwOptions options;
        options.bandFraction = 0.1;
        const double bound = ts::lbKeogh(envelope, b);
        const double exact = ts::dtwDistance(a, b, options);
        EXPECT_LE(bound, exact + 1e-9) << "seed " << seed;
    }
}

TEST(LbKeogh, NearestNeighborFindsTrueMatch)
{
    const TimeSeries query("Q", noisySine(150, 0.3, 3));
    std::vector<TimeSeries> candidates;
    for (int c = 0; c < 20; ++c) {
        candidates.emplace_back(
            "C" + std::to_string(c),
            noisySine(150, 3.0 + 0.2 * c, 200 + c));
    }
    // Insert a near-duplicate of the query.
    candidates.emplace_back("MATCH", noisySine(150, 0.3, 999));
    const auto result = ts::nearestNeighborDtw(query, candidates);
    EXPECT_EQ(result.index, candidates.size() - 1);
    // Pruning must actually skip most full DTW computations.
    EXPECT_LT(result.dtwEvaluations, candidates.size());
}

TEST(LbKeogh, NearestNeighborMatchesBruteForce)
{
    std::vector<TimeSeries> candidates;
    for (int c = 0; c < 12; ++c)
        candidates.emplace_back("C", noisySine(80, 0.5 * c, 300 + c));
    // A sine that matches one candidate, plus random walks that match
    // none: their bounds order the candidates least like their
    // distances do, which is where an inadmissible bound shows.
    std::vector<TimeSeries> queries = {
        TimeSeries("Q", noisySine(80, 1.0, 4))};
    Rng rng(0x1b4e);
    for (int walk = 0; walk < 30; ++walk) {
        std::vector<double> values(80);
        double level = 0.0;
        for (auto &v : values) {
            level += rng.gaussian(0.0, 0.2);
            v = level;
        }
        queries.emplace_back("W", std::move(values));
    }

    // Band 0 is unconstrained DTW: the envelope must span the series.
    for (const double band : {0.0, 0.05, 0.1, 1.0}) {
        ts::DtwOptions options;
        options.bandFraction = band;
        for (std::size_t q = 0; q < queries.size(); ++q) {
            const auto fast =
                ts::nearestNeighborDtw(queries[q], candidates, band);
            // Brute force with the same band.
            std::size_t best = 0;
            double best_distance = 1e300;
            for (std::size_t c = 0; c < candidates.size(); ++c) {
                const double d =
                    ts::dtwDistance(queries[q], candidates[c], options);
                if (d < best_distance) {
                    best_distance = d;
                    best = c;
                }
            }
            EXPECT_EQ(fast.index, best) << "band " << band << " query " << q;
            EXPECT_NEAR(fast.distance, best_distance, 1e-9)
                << "band " << band << " query " << q;
        }
    }
}

TEST(ZNormalize, MeanZeroUnitVariance)
{
    auto values = noisySine(200, 0.7, 5);
    for (auto &v : values)
        v = v * 3.0 + 10.0;
    ts::zNormalize(values);
    double mean = 0.0;
    for (double v : values)
        mean += v;
    mean /= static_cast<double>(values.size());
    EXPECT_NEAR(mean, 0.0, 1e-9);
    double var = 0.0;
    for (double v : values)
        var += v * v;
    var /= static_cast<double>(values.size());
    EXPECT_NEAR(var, 1.0, 1e-9);
}

TEST(ZNormalize, ConstantSeriesBecomesZeros)
{
    std::vector<double> values(10, 5.0);
    ts::zNormalize(values);
    for (double v : values)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

// --- perf text interop -------------------------------------------------------

TEST(PerfText, RoundTripPreservesSeries)
{
    std::vector<TimeSeries> series = {
        TimeSeries("ICACHE.MISSES", {100.5, 0.0, 250.25}, 10.0),
        TimeSeries("BR_INST_RETIRED.ALL_BRANCHES", {7.0, 8.0, 9.0},
                   10.0)};
    const std::string text = core::renderPerfIntervals(series);
    // Missing values render as perf's marker.
    EXPECT_NE(text.find("<not counted>"), std::string::npos);

    const auto parsed = core::parsePerfIntervals(text);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].eventName(), "ICACHE.MISSES");
    ASSERT_EQ(parsed[0].size(), 3u);
    EXPECT_NEAR(parsed[0].at(0), 100.5, 0.01);
    EXPECT_DOUBLE_EQ(parsed[0].at(1), 0.0); // <not counted> -> 0
    EXPECT_NEAR(parsed[1].at(2), 9.0, 0.01);
    EXPECT_NEAR(parsed[0].intervalMs(), 10.0, 1e-6);
}

TEST(PerfText, ParsesHandWrittenPerfOutput)
{
    const std::string text =
        "# started on Thu Jul  2 11:00:00 2026\n"
        "0.100000,1234,instructions\n"
        "0.100000,<not counted>,cache-misses\n"
        "0.200000,5678,instructions\n"
        "0.200000,42,cache-misses\n";
    const auto parsed = core::parsePerfIntervals(text);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].eventName(), "instructions");
    EXPECT_DOUBLE_EQ(parsed[0].at(1), 5678.0);
    EXPECT_DOUBLE_EQ(parsed[1].at(0), 0.0);
    EXPECT_NEAR(parsed[0].intervalMs(), 100.0, 1e-6);
}

TEST(PerfText, MalformedInputRejected)
{
    EXPECT_THROW(core::parsePerfIntervals("garbage line\n"), FatalError);
    EXPECT_THROW(core::parsePerfIntervals("# only comments\n"),
                 FatalError);
    EXPECT_THROW(core::parsePerfIntervals("xx,12,ev\n"), FatalError);
}

TEST(PerfText, RaggedSeriesRejected)
{
    const std::string text = "0.1,1,a\n0.1,2,b\n0.2,3,a\n";
    EXPECT_THROW(core::parsePerfIntervals(text), FatalError);
}

// --- Mathur interpolation baselines ---------------------------------------

TEST(MathurBaseline, InterpolatesInteriorZeros)
{
    TimeSeries series("X", {10.0, 0.0, 0.0, 40.0, 50.0});
    EXPECT_EQ(core::mathurInterpolate(series), 2u);
    EXPECT_DOUBLE_EQ(series.at(1), 20.0);
    EXPECT_DOUBLE_EQ(series.at(2), 30.0);
}

TEST(MathurBaseline, EdgesCopyNearestObservation)
{
    TimeSeries series("X", {0.0, 0.0, 30.0, 0.0});
    EXPECT_EQ(core::mathurInterpolate(series), 3u);
    EXPECT_DOUBLE_EQ(series.at(0), 30.0);
    EXPECT_DOUBLE_EQ(series.at(1), 30.0);
    EXPECT_DOUBLE_EQ(series.at(3), 30.0);
}

TEST(MathurBaseline, AllZeroSeriesUntouched)
{
    TimeSeries series("X", {0.0, 0.0, 0.0});
    EXPECT_EQ(core::mathurInterpolate(series), 0u);
    EXPECT_DOUBLE_EQ(series.at(0), 0.0);
}

TEST(MathurBaseline, BlockedVariantUsesLocalSlope)
{
    // Two linear segments with different slopes; global interpolation
    // across a long gap flattens them, blocked interpolation does not.
    std::vector<double> values;
    for (int i = 0; i < 16; ++i)
        values.push_back(100.0 + 10.0 * i);
    for (int i = 0; i < 16; ++i)
        values.push_back(1000.0 - 5.0 * i);
    values[5] = 0.0;
    values[20] = 0.0;
    TimeSeries series("X", values);
    EXPECT_EQ(core::mathurInterpolateBlocked(series, 16), 2u);
    EXPECT_NEAR(series.at(5), 150.0, 1e-9);
    EXPECT_NEAR(series.at(20), 980.0, 1e-9);
}

TEST(MathurBaseline, BlockedFallsBackWhenBlockAllZero)
{
    std::vector<double> values(32, 500.0);
    for (int i = 8; i < 16; ++i)
        values[i] = 0.0; // an entire 8-sample block of a 8-block split
    TimeSeries series("X", values);
    core::mathurInterpolateBlocked(series, 8);
    for (std::size_t i = 0; i < series.size(); ++i)
        EXPECT_GT(series.at(i), 0.0) << "index " << i;
}

// --- advisor ----------------------------------------------------------------

TEST(Advisor, MapsCategoriesToLayers)
{
    const auto &catalog = pmu::EventCatalog::instance();
    std::vector<ml::FeatureImportance> ranking = {
        {"ISF", 8.0},  // stall -> architecture
        {"ORA", 5.0},  // remote -> system
        {"BRE", 4.0},  // branch -> application
        {"ITM", 3.0},  // tlb -> system
        {"MCO", 0.5},  // below threshold
    };
    const auto recs = core::advise(ranking, catalog, 2.0);
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(recs[0].event, "ISF");
    EXPECT_EQ(recs[0].layer, "architecture");
    EXPECT_EQ(recs[1].layer, "system");
    EXPECT_EQ(recs[2].layer, "application");
    for (const auto &rec : recs)
        EXPECT_FALSE(rec.advice.empty());
}

TEST(Advisor, SkipsUnknownFeatures)
{
    const auto &catalog = pmu::EventCatalog::instance();
    std::vector<ml::FeatureImportance> ranking = {
        {"cfg:bbs", 9.0}, // a configuration column, not an event
        {"ISF", 5.0},
    };
    const auto recs = core::advise(ranking, catalog);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].event, "ISF");
}

// --- permutation importance ---------------------------------------------

TEST(PermutationImportance, AgreesWithPlantedStructure)
{
    ml::Dataset data({"strong", "weak", "noise"});
    Rng gen(6);
    for (int i = 0; i < 1000; ++i) {
        const double a = gen.gaussian();
        const double b = gen.gaussian();
        const double c = gen.gaussian();
        data.addRow({a, b, c}, 3.0 * a + 0.5 * b);
    }
    Rng rng(7);
    ml::GbrtParams params;
    params.tree.featureFraction = 1.0;
    ml::Gbrt model(params);
    model.fit(data, rng);

    const auto perm = ml::permutationImportance(model, data, rng);
    ASSERT_EQ(perm.size(), 3u);
    EXPECT_EQ(perm[0].feature, "strong");
    EXPECT_EQ(perm[1].feature, "weak");
    EXPECT_GT(perm[0].importance, 60.0);
    EXPECT_LT(perm[2].importance, 10.0);
    double total = 0.0;
    for (const auto &fi : perm)
        total += fi.importance;
    EXPECT_NEAR(total, 100.0, 1e-6);
}

TEST(PermutationImportance, CorrelatesWithFriedmanImportance)
{
    ml::Dataset data({"a", "b", "c", "d"});
    Rng gen(8);
    for (int i = 0; i < 1200; ++i) {
        std::vector<double> row = {gen.gaussian(), gen.gaussian(),
                                   gen.gaussian(), gen.gaussian()};
        data.addRow(row, 2.0 * row[0] + 1.0 * row[1] + 0.3 * row[2]);
    }
    Rng rng(9);
    ml::GbrtParams params;
    params.tree.featureFraction = 1.0;
    ml::Gbrt model(params);
    model.fit(data, rng);

    const auto friedman = model.featureImportances();
    const auto perm = ml::permutationImportance(model, data, rng);
    // Same top feature and same bottom feature.
    EXPECT_EQ(friedman[0].feature, perm[0].feature);
    EXPECT_EQ(friedman.back().feature, perm.back().feature);
}

// --- store queries ---------------------------------------------------------

store::Database
populatedDb()
{
    store::Database db;
    auto make_series = [](double level) {
        return std::vector<TimeSeries>{
            TimeSeries("EV_A", {level, level + 1.0, level + 2.0}, 10.0),
            TimeSeries("EV_B", {1.0, 2.0, 3.0}, 10.0)};
    };
    db.addRun("sort", "hibench", "mlpx", 1000.0, make_series(10.0));
    db.addRun("sort", "hibench", "mlpx", 1400.0, make_series(20.0));
    db.addRun("sort", "hibench", "ocoe", 1200.0, make_series(30.0));
    db.addRun("scan", "hibench", "mlpx", 500.0, make_series(5.0));
    return db;
}

TEST(StoreQuery, SummarizeByProgram)
{
    const auto db = populatedDb();
    const auto summaries = store::summarizeByProgram(db);
    ASSERT_EQ(summaries.size(), 2u);
    // Sorted by name: scan then sort.
    EXPECT_EQ(summaries[0].program, "scan");
    EXPECT_EQ(summaries[1].program, "sort");
    EXPECT_EQ(summaries[1].runCount, 3u);
    EXPECT_EQ(summaries[1].mlpxRuns, 2u);
    EXPECT_EQ(summaries[1].ocoeRuns, 1u);
    EXPECT_NEAR(summaries[1].meanExecTimeMs, 1200.0, 1e-9);
    EXPECT_DOUBLE_EQ(summaries[1].minExecTimeMs, 1000.0);
    EXPECT_DOUBLE_EQ(summaries[1].maxExecTimeMs, 1400.0);
}

TEST(StoreQuery, SummarizeEventAcrossRuns)
{
    const auto db = populatedDb();
    const auto summary =
        store::summarizeEventAcrossRuns(db, "sort", "EV_A", "mlpx");
    EXPECT_EQ(summary.runCount, 2u);
    EXPECT_EQ(summary.pooled.count, 6u);
    // Run means are 11 and 21.
    EXPECT_NEAR(summary.meanOfRunMeans, 16.0, 1e-9);
    EXPECT_GT(summary.stddevOfRunMeans, 5.0);
}

TEST(StoreQuery, SummarizeEventUnknownFatal)
{
    const auto db = populatedDb();
    EXPECT_THROW(
        store::summarizeEventAcrossRuns(db, "sort", "NO_EVENT"),
        FatalError);
    EXPECT_THROW(store::summarizeEventAcrossRuns(db, "nope", "EV_A"),
                 FatalError);
}

} // namespace
