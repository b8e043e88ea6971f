/**
 * @file
 * Golden determinism test for the mining pipeline's data plane.
 *
 * Runs the full facade (collect -> clean -> EIR -> interactions) on a
 * fixed seed and serializes the outputs that matter — the EIR iteration
 * trace, the top-10 importance list, the MAPM summary, the interaction
 * ranking, and the per-series cleaning reports — to JSON, with every
 * floating-point result also rendered as an exact C99 hexfloat. The
 * document must match the checked-in golden byte-for-byte at 1, 2, and
 * 8 threads: any change to the arithmetic of the columnar data plane
 * (dataset layout, views, split search, CV folds, cleaning) shows up
 * here as a diff.
 *
 * Regenerate intentionally with CMINER_UPDATE_GOLDEN=1 (and say why in
 * the commit message).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/counterminer.h"
#include "pmu/event.h"
#include "store/database.h"
#include "support/test_support.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/suites.h"

namespace {

using namespace cminer;
using namespace cminer::core;
using cminer::util::JsonWriter;
using cminer::util::Rng;
using cminer::test::ThreadCountGuard;

/** Exact bit pattern of a double as a C99 hexfloat string. */
std::string
hexFloat(double v)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%a", v);
    return buffer;
}

ProfileOptions
goldenOptions()
{
    ProfileOptions options;
    options.mlpxRuns = 2;
    options.importance.minEvents = 196; // 4 EIR iterations
    return options;
}

/**
 * One full pipeline run at a fixed seed over a caller-supplied database
 * (with or without a store directory), serialized.
 */
std::string
runPipelineJson(std::size_t threads, store::Database &db)
{
    ThreadCountGuard guard(threads);
    const auto &catalog = pmu::EventCatalog::instance();
    const auto &bench = workload::BenchmarkSuite::instance().byName("sort");
    CounterMiner miner(db, catalog, goldenOptions());
    Rng rng(42);
    const ProfileReport report = miner.profile(bench, rng);

    JsonWriter json;
    json.beginObject();
    json.key("benchmark");
    json.value(report.benchmark);

    json.key("eir_curve");
    json.beginArray();
    for (const auto &point : report.importance.curve) {
        json.beginObject();
        json.key("events");
        json.value(point.eventCount);
        json.key("error_percent");
        json.value(point.testErrorPercent);
        json.key("error_hex");
        json.value(hexFloat(point.testErrorPercent));
        json.endObject();
    }
    json.endArray();

    json.key("mapm");
    json.beginObject();
    json.key("events");
    json.value(report.importance.mapmEventCount);
    json.key("error_percent");
    json.value(report.importance.mapmErrorPercent);
    json.key("error_hex");
    json.value(hexFloat(report.importance.mapmErrorPercent));
    json.endObject();

    json.key("top_events");
    json.beginArray();
    for (const auto &fi : report.topEvents) {
        json.beginObject();
        json.key("event");
        json.value(fi.feature);
        json.key("importance_percent");
        json.value(fi.importance);
        json.key("importance_hex");
        json.value(hexFloat(fi.importance));
        json.endObject();
    }
    json.endArray();

    json.key("interactions");
    json.beginArray();
    for (const auto &pair : report.interactions.pairs) {
        json.beginObject();
        json.key("pair");
        json.value(pair.first + "*" + pair.second);
        json.key("variance_hex");
        json.value(hexFloat(pair.residualVariance));
        json.key("percent_hex");
        json.value(hexFloat(pair.importancePercent));
        json.endObject();
    }
    json.endArray();

    // The cleaning stage's full accounting: threshold selection and
    // repair counts pin the cleaned values themselves (any change to a
    // cleaned sample moves a downstream model fit anyway, but the
    // reports catch cleaning-only regressions directly).
    json.key("cleaning");
    json.beginArray();
    for (const auto &r : report.cleaning) {
        json.beginArray();
        json.value(r.event);
        json.value(r.outliersReplaced);
        json.value(r.missingFilled);
        json.value(r.nonFiniteRepaired);
        json.value(r.trueZerosKept);
        json.value(hexFloat(r.thresholdN));
        json.value(hexFloat(r.threshold));
        json.endArray();
    }
    json.endArray();

    json.endObject();
    return json.str();
}

std::string
runPipelineJson(std::size_t threads)
{
    store::Database db;
    return runPipelineJson(threads, db);
}

std::string
goldenPath()
{
    return std::string(CMINER_GOLDEN_DIR) + "/profile_sort.json";
}

TEST(GoldenPipeline, MatchesCheckedInGoldenAtAllThreadCounts)
{
    const std::string document = runPipelineJson(1);

    if (std::getenv("CMINER_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << document << "\n";
        out.close();
        GTEST_SKIP() << "golden regenerated at " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing golden file " << goldenPath()
                    << " (regenerate with CMINER_UPDATE_GOLDEN=1)";
    std::ostringstream stored;
    stored << in.rdbuf();
    std::string expected = stored.str();
    if (!expected.empty() && expected.back() == '\n')
        expected.pop_back();

    EXPECT_EQ(document, expected)
        << "pipeline output diverged from the checked-in golden at 1 "
           "thread";

    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        EXPECT_EQ(runPipelineJson(threads), expected)
            << "pipeline output diverged at " << threads << " threads";
    }
}

// The mining pipeline must not care where the database keeps its bytes:
// profiling into a directory-backed store — with a seal threshold
// small enough that the collected runs spill into mapped segment files
// mid-profile — reproduces the document of a store with no directory,
// whose runs stay buffered, byte-for-byte at every thread count.
TEST(GoldenPipeline, ByteIdenticalOnSegmentBackedStore)
{
    if (std::getenv("CMINER_UPDATE_GOLDEN") != nullptr)
        GTEST_SKIP() << "golden regeneration handled by the thread test";

    const std::string reference = runPipelineJson(1);
    const std::string dir = "/tmp/cminer_golden_store";
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
        std::filesystem::remove_all(dir);
        store::StoreOptions options;
        options.directory = dir;
        options.sealThresholdBytes = 64ull << 10;
        store::Database db = store::Database::openStore(options);
        EXPECT_EQ(runPipelineJson(threads, db), reference)
            << "segment-backed pipeline diverged at " << threads
            << " threads";
    }
    std::filesystem::remove_all(dir);
}

} // namespace
