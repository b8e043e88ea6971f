/**
 * @file
 * Unit tests for the workload substrate: the Spark parameter catalog,
 * benchmark suite structure (matches the paper's Table II and Figs.
 * 9-12 planting), trace generation invariants, config/runtime coupling,
 * co-location interference, and the simulated cluster.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "pmu/event.h"
#include "stats/descriptive.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/benchmark.h"
#include "workload/cluster.h"
#include "workload/colocate.h"
#include "workload/spark_config.h"
#include "workload/suites.h"

namespace {

using namespace cminer::workload;
using cminer::pmu::EventCatalog;
using cminer::pmu::EventId;
using cminer::pmu::TrueTrace;
using cminer::util::FatalError;
using cminer::util::Rng;

// --- Spark parameter catalog ---------------------------------------------

TEST(SparkParams, CatalogHasPaperParameters)
{
    const auto &catalog = SparkParamCatalog::instance();
    for (const char *abbrev :
         {"bbs", "nwt", "exm", "exc", "dpl", "rdm", "mmf", "kbf", "kbm",
          "ssb", "ics", "sfb", "dmm"}) {
        EXPECT_TRUE(catalog.has(abbrev)) << abbrev;
    }
    EXPECT_EQ(catalog.byAbbrev("bbs").name, "spark.broadcast.blockSize");
    EXPECT_EQ(catalog.byAbbrev("nwt").name, "spark.network.timeout");
    EXPECT_THROW(catalog.byAbbrev("zzz"), FatalError);
}

TEST(SparkParams, RangesSane)
{
    const auto &catalog = SparkParamCatalog::instance();
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        const SparkParam &p = catalog.param(i);
        EXPECT_LT(p.minValue, p.maxValue) << p.name;
        EXPECT_GE(p.defaultValue, p.minValue) << p.name;
        EXPECT_LE(p.defaultValue, p.maxValue) << p.name;
    }
}

TEST(SparkConfig, DefaultsAndClamping)
{
    SparkConfig config;
    EXPECT_DOUBLE_EQ(config.get("bbs"), 4.0);
    config.set("bbs", 1000.0); // clamp to max = 32
    EXPECT_DOUBLE_EQ(config.get("bbs"), 32.0);
    config.set("bbs", -5.0); // clamp to min = 1
    EXPECT_DOUBLE_EQ(config.get("bbs"), 1.0);
}

TEST(SparkConfig, NormalizationEndpoints)
{
    SparkConfig config;
    EXPECT_DOUBLE_EQ(config.normalized("bbs"), 0.0); // default -> 0
    config.set("bbs", 32.0);
    EXPECT_NEAR(config.normalized("bbs"), 1.0, 1e-9);
    config.set("bbs", 1.0);
    EXPECT_NEAR(config.normalized("bbs"), -1.0, 1e-9);
}

TEST(SparkConfig, NormalizationMonotone)
{
    SparkConfig config;
    double previous = -2.0;
    for (double v : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
        config.set("bbs", v);
        const double norm = config.normalized("bbs");
        EXPECT_GT(norm, previous);
        previous = norm;
    }
}

TEST(SparkConfig, RandomStaysInRange)
{
    Rng rng(1);
    for (int rep = 0; rep < 20; ++rep) {
        const SparkConfig config = SparkConfig::random(rng);
        const auto &catalog = SparkParamCatalog::instance();
        for (std::size_t i = 0; i < catalog.size(); ++i) {
            const SparkParam &p = catalog.param(i);
            const double v = config.get(p.abbrev);
            EXPECT_GE(v, p.minValue);
            EXPECT_LE(v, p.maxValue);
            const double norm = config.normalized(p.abbrev);
            EXPECT_GE(norm, -1.0 - 1e-9);
            EXPECT_LE(norm, 1.0 + 1e-9);
        }
    }
}

// --- Benchmark suite -------------------------------------------------------

TEST(BenchmarkSuite, SixteenBenchmarksMatchingTable2)
{
    const auto &suite = BenchmarkSuite::instance();
    EXPECT_EQ(suite.all().size(), 16u);
    EXPECT_EQ(suite.hibench().size(), 8u);
    EXPECT_EQ(suite.cloudsuite().size(), 8u);
    for (const char *name :
         {"wordcount", "pagerank", "aggregation", "join", "scan", "sort",
          "bayes", "kmeans", "DataAnalytics", "DataCaching", "DataServing",
          "GraphAnalytics", "InMemoryAnalytics", "MediaStreaming",
          "WebSearch", "WebServing"}) {
        EXPECT_TRUE(suite.has(name)) << name;
    }
    EXPECT_FALSE(suite.has("nope"));
    EXPECT_THROW(suite.byName("nope"), FatalError);
}

TEST(BenchmarkSuite, PlantedTopTenMatchesPaperFig9)
{
    const auto &suite = BenchmarkSuite::instance();
    // Spot-check two benchmarks against the paper's published order.
    const auto wc = suite.byName("wordcount").plantedRanking(10);
    const std::vector<std::string> wc_expected = {
        "ISF", "BRE", "ORA", "IPD", "BRB", "BMP", "MSL", "URA", "URS",
        "ITM"};
    EXPECT_EQ(wc, wc_expected);

    const auto sort_rank = suite.byName("sort").plantedRanking(10);
    EXPECT_EQ(sort_rank[0], "ORO");
    EXPECT_EQ(sort_rank[1], "IDU");
}

TEST(BenchmarkSuite, OneThreeSmiLawPlanted)
{
    // Each benchmark has 1-3 events clearly above the rest.
    const auto &suite = BenchmarkSuite::instance();
    for (const auto *bench : suite.all()) {
        const auto ranking = bench->plantedRanking(10);
        ASSERT_GE(ranking.size(), 4u);
        const double top = bench->plantedImportance(ranking[0]);
        const double fourth = bench->plantedImportance(ranking[3]);
        EXPECT_GT(top, 2.0 * fourth)
            << bench->name() << ": top " << top << " vs 4th " << fourth;
    }
}

TEST(BenchmarkSuite, HiBenchMoreDiverseThanCloudSuite)
{
    // The paper's fourth finding: HiBench top-10 lists are more diverse
    // than CloudSuite's.
    const auto &suite = BenchmarkSuite::instance();
    auto distinct_events = [](const std::vector<const SyntheticBenchmark *>
                                  &benches) {
        std::set<std::string> events;
        for (const auto *b : benches) {
            for (const auto &e : b->plantedRanking(10))
                events.insert(e);
        }
        return events.size();
    };
    EXPECT_GT(distinct_events(suite.hibench()),
              distinct_events(suite.cloudsuite()));
}

TEST(BenchmarkSuite, DominantPairPlantedStrongerForCloudSuite)
{
    const auto &suite = BenchmarkSuite::instance();
    auto dominance = [](const SyntheticBenchmark &b) {
        const auto &inter = b.spec().interactions;
        double top = 0.0;
        double total = 0.0;
        for (const auto &ie : inter) {
            top = std::max(top, ie.weight);
            total += ie.weight;
        }
        return top / total;
    };
    double hibench_avg = 0.0;
    for (const auto *b : suite.hibench())
        hibench_avg += dominance(*b);
    hibench_avg /= 8.0;
    double cloud_avg = 0.0;
    for (const auto *b : suite.cloudsuite())
        cloud_avg += dominance(*b);
    cloud_avg /= 8.0;
    EXPECT_GT(cloud_avg, hibench_avg);
}

// --- Trace generation -------------------------------------------------------

TEST(Benchmark, TraceShapeAndPositivity)
{
    const auto &bench = BenchmarkSuite::instance().byName("wordcount");
    Rng rng(2);
    const TrueTrace trace = bench.generateTrace(rng);
    EXPECT_EQ(trace.eventCount(), 229u);
    EXPECT_GT(trace.intervalCount(), 100u);
    for (EventId id = 0; id < trace.eventCount(); ++id) {
        for (std::size_t t = 0; t < trace.intervalCount(); t += 37)
            EXPECT_GE(trace.count(id, t), 0.0);
    }
    for (std::size_t t = 0; t < trace.intervalCount(); ++t) {
        EXPECT_GT(trace.ipc(t), 0.0);
        EXPECT_LT(trace.ipc(t), 5.01);
    }
}

TEST(Benchmark, RunLengthsVaryAcrossRuns)
{
    const auto &bench = BenchmarkSuite::instance().byName("pagerank");
    Rng rng(3);
    std::set<std::size_t> lengths;
    for (int rep = 0; rep < 8; ++rep)
        lengths.insert(bench.generateTrace(rng).intervalCount());
    EXPECT_GT(lengths.size(), 3u) << "OS nondeterminism missing";
}

TEST(Benchmark, DeterministicGivenSeed)
{
    const auto &bench = BenchmarkSuite::instance().byName("sort");
    Rng rng_a(42);
    Rng rng_b(42);
    const TrueTrace a = bench.generateTrace(rng_a);
    const TrueTrace b = bench.generateTrace(rng_b);
    ASSERT_EQ(a.intervalCount(), b.intervalCount());
    for (std::size_t t = 0; t < a.intervalCount(); t += 13) {
        EXPECT_DOUBLE_EQ(a.ipc(t), b.ipc(t));
        EXPECT_DOUBLE_EQ(a.count(5, t), b.count(5, t));
    }
}

TEST(Benchmark, ColdStartBoostsFrontendEvents)
{
    const auto &catalog = EventCatalog::instance();
    const auto &bench = BenchmarkSuite::instance().byName("wordcount");
    const EventId imc = catalog.idOf("ICACHE.MISSES");
    Rng rng(4);
    double early = 0.0;
    double late = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        const TrueTrace trace = bench.generateTrace(rng);
        for (std::size_t t = 0; t < 10; ++t)
            early += trace.count(imc, t);
        for (std::size_t t = 100; t < 110; ++t)
            late += trace.count(imc, t);
    }
    EXPECT_GT(early, 1.5 * late) << "cold-start icache ramp missing";
}

TEST(Benchmark, FixedCountersConsistentWithIpc)
{
    const auto &catalog = EventCatalog::instance();
    const auto &bench = BenchmarkSuite::instance().byName("scan");
    Rng rng(5);
    const TrueTrace trace = bench.generateTrace(rng);
    const EventId inst = catalog.idOf("INST_RETIRED.ANY");
    const EventId cyc = catalog.idOf("CPU_CLK_UNHALTED.THREAD");
    for (std::size_t t = 0; t < trace.intervalCount(); t += 17) {
        const double derived =
            trace.count(inst, t) / trace.count(cyc, t);
        EXPECT_NEAR(derived, trace.ipc(t), 1e-9);
    }
}

TEST(Benchmark, DominantEventCorrelatesWithIpc)
{
    const auto &catalog = EventCatalog::instance();
    const auto &bench = BenchmarkSuite::instance().byName("wordcount");
    const EventId isf = catalog.idOfAbbrev("ISF");
    Rng rng(6);
    const TrueTrace trace = bench.generateTrace(rng);
    std::vector<double> isf_values;
    std::vector<double> ipc_values;
    for (std::size_t t = 0; t < trace.intervalCount(); ++t) {
        isf_values.push_back(std::log(trace.count(isf, t)));
        ipc_values.push_back(std::log(trace.ipc(t)));
    }
    // More IQ-full stalls -> lower IPC, by construction.
    EXPECT_LT(cminer::stats::pearson(isf_values, ipc_values), -0.15);
}

TEST(Benchmark, DerivedEventsCorrelated)
{
    // BMP is planted to track BRB (a large BMP is caused by a large BRB).
    const auto &catalog = EventCatalog::instance();
    const auto &bench = BenchmarkSuite::instance().byName("pagerank");
    Rng rng(7);
    const TrueTrace trace = bench.generateTrace(rng);
    std::vector<double> brb;
    std::vector<double> bmp;
    for (std::size_t t = 0; t < trace.intervalCount(); ++t) {
        brb.push_back(std::log(trace.count(catalog.idOfAbbrev("BRB"), t)));
        bmp.push_back(std::log(trace.count(catalog.idOfAbbrev("BMP"), t)));
    }
    EXPECT_GT(cminer::stats::pearson(brb, bmp), 0.35);
}

// --- Config coupling ---------------------------------------------------

TEST(Benchmark, DurationFactorRespondsToCoupledParam)
{
    const auto &bench = BenchmarkSuite::instance().byName("sort");
    SparkConfig low;
    low.set("bbs", 1.0);
    SparkConfig high;
    high.set("bbs", 32.0);
    const double swing = bench.durationFactor(low) /
                         bench.durationFactor(high);
    // bbs is the dominant runtime knob for sort (paper Fig. 14: ~111%
    // execution-time variation across its range).
    EXPECT_TRUE(swing > 1.6 || swing < 0.625) << "swing " << swing;
}

TEST(Benchmark, WeakParamMovesRuntimeLess)
{
    const auto &bench = BenchmarkSuite::instance().byName("sort");
    auto range = [&](const char *param, double lo, double hi) {
        SparkConfig a;
        a.set(param, lo);
        SparkConfig b;
        b.set(param, hi);
        const double fa = bench.durationFactor(a);
        const double fb = bench.durationFactor(b);
        return std::max(fa, fb) / std::min(fa, fb);
    };
    EXPECT_GT(range("bbs", 1.0, 32.0), range("nwt", 30.0, 600.0));
}

TEST(Benchmark, ConfigShiftsCoupledEventActivity)
{
    const auto &catalog = EventCatalog::instance();
    const auto &bench = BenchmarkSuite::instance().byName("sort");
    const EventId oro = catalog.idOfAbbrev("ORO");
    Rng rng(8);
    SparkConfig low;
    low.set("bbs", 1.0);
    SparkConfig high;
    high.set("bbs", 32.0);
    double low_total = 0.0;
    double high_total = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
        const TrueTrace tl = bench.generateTrace(rng, low);
        const TrueTrace th = bench.generateTrace(rng, high);
        for (std::size_t t = 0; t < std::min(tl.intervalCount(),
                                             th.intervalCount()); ++t) {
            low_total += tl.count(oro, t);
            high_total += th.count(oro, t);
        }
    }
    // bbs -> ORO coupling has positive eventShift.
    EXPECT_GT(high_total, low_total);
}

// --- Co-location -----------------------------------------------------

TEST(Colocate, SamePairGetsLowAutoContention)
{
    const auto &suite = BenchmarkSuite::instance();
    const auto &dc = suite.byName("DataCaching");
    const auto &catalog = EventCatalog::instance();
    Rng rng(9);
    const TrueTrace same = composeColocated(dc, dc, rng);
    EXPECT_GT(same.intervalCount(), 50u);
    EXPECT_EQ(same.eventCount(), catalog.size());
}

TEST(Colocate, MixedPairInflatesL2Events)
{
    const auto &suite = BenchmarkSuite::instance();
    const auto &catalog = EventCatalog::instance();
    const auto &dc = suite.byName("DataCaching");
    const auto &ga = suite.byName("GraphAnalytics");
    const EventId l2h = catalog.idOfAbbrev("L2H");

    Rng rng_same(10);
    Rng rng_mixed(10);
    // Same seed so the underlying traces match scale.
    const TrueTrace same = composeColocated(dc, dc, rng_same);
    const TrueTrace mixed = composeColocated(dc, ga, rng_mixed);

    auto mean_l2 = [&](const TrueTrace &trace) {
        double total = 0.0;
        for (std::size_t t = 0; t < trace.intervalCount(); ++t)
            total += trace.count(l2h, t);
        return total / static_cast<double>(trace.intervalCount());
    };
    EXPECT_GT(mean_l2(mixed), mean_l2(same) * 1.1);
}

TEST(Colocate, CombinedIpcBelowHarmonicMeanUnderContention)
{
    const auto &suite = BenchmarkSuite::instance();
    const auto &dc = suite.byName("DataCaching");
    const auto &ga = suite.byName("GraphAnalytics");
    Rng rng(11);
    ColocationOptions options;
    options.contention = 0.9;
    const TrueTrace trace = composeColocated(dc, ga, rng, options);
    // IPC must stay within the generator's physical clamp.
    for (std::size_t t = 0; t < trace.intervalCount(); ++t) {
        EXPECT_GT(trace.ipc(t), 0.0);
        EXPECT_LT(trace.ipc(t), 5.01);
    }
}

// --- Cluster -----------------------------------------------------------

TEST(Cluster, TimeOnlyModelTracksConfigFactor)
{
    const auto &bench = BenchmarkSuite::instance().byName("sort");
    SimulatedCluster cluster;
    Rng rng(13);
    SparkConfig low;
    low.set("bbs", 1.0);
    SparkConfig high;
    high.set("bbs", 32.0);
    double low_total = 0.0;
    double high_total = 0.0;
    for (int rep = 0; rep < 10; ++rep) {
        low_total += cluster.runJobTimeOnly(bench, low, rng);
        high_total += cluster.runJobTimeOnly(bench, high, rng);
    }
    // Measured job times must move in the same direction as the
    // benchmark's deterministic duration factor.
    const double expected_ratio =
        bench.durationFactor(low) / bench.durationFactor(high);
    ASSERT_NE(expected_ratio, 1.0);
    if (expected_ratio > 1.0)
        EXPECT_GT(low_total, high_total);
    else
        EXPECT_LT(low_total, high_total);
}

/** Parameterized sweep: every benchmark generates a sane trace. */
class AllBenchmarks : public ::testing::TestWithParam<std::string>
{};

TEST_P(AllBenchmarks, GeneratesValidTrace)
{
    const auto &bench = BenchmarkSuite::instance().byName(GetParam());
    Rng rng(99);
    const TrueTrace trace = bench.generateTrace(rng);
    EXPECT_GE(trace.intervalCount(), 80u);
    EXPECT_EQ(trace.eventCount(), 229u);
    double ipc_total = 0.0;
    for (std::size_t t = 0; t < trace.intervalCount(); ++t)
        ipc_total += trace.ipc(t);
    const double ipc_mean =
        ipc_total / static_cast<double>(trace.intervalCount());
    EXPECT_GT(ipc_mean, 0.2);
    EXPECT_LT(ipc_mean, 3.0);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, AllBenchmarks,
    ::testing::Values("wordcount", "pagerank", "aggregation", "join",
                      "scan", "sort", "bayes", "kmeans", "DataAnalytics",
                      "DataCaching", "DataServing", "GraphAnalytics",
                      "InMemoryAnalytics", "MediaStreaming", "WebSearch",
                      "WebServing"));

} // namespace
