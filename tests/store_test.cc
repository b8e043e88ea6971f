/**
 * @file
 * Unit tests for the embedded store: the two-level database
 * organization, save/load round trips (a saved database is one
 * segment file), CSV export, and the directory-backed segment store —
 * seal/compaction lifecycle, seal and compaction failure recovery,
 * snapshot pinning, on-disk byte identity against a reference encoder,
 * open-time corruption refusal (checkpoint_test's truncation/byte-flip
 * sweep style), and snapshot stability under concurrent ingest and
 * maintenance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "store/database.h"
#include "store/segment.h"
#include "store/store_index.h"
#include "support/test_support.h"
#include "ts/time_series.h"
#include "util/error.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace {

using namespace cminer::store;
using cminer::ts::TimeSeries;
using cminer::util::FatalError;
using cminer::util::StatusCode;
using cminer::test::readBytes;
using cminer::test::writeBytes;

// A copy would share one store behind two handles; moves are cheap.
static_assert(!std::is_copy_constructible_v<Database>);
static_assert(!std::is_copy_assignable_v<Database>);
static_assert(std::is_nothrow_move_constructible_v<Database>);

// --- shared helpers -----------------------------------------------------

std::vector<TimeSeries>
makeSeries()
{
    return {TimeSeries("EV_A", {1.0, 2.0, 3.0}, 10.0),
            TimeSeries("EV_B", {4.0, 5.0, 6.0}, 10.0)};
}

/** Fresh scratch directory for one store test. */
std::string
storeDir(const std::string &name)
{
    const std::string dir = "/tmp/cminer_store_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/**
 * One deterministic run: EV_A[t] = base + t, EV_B[t] = 2*base + t,
 * sampled on one 10 ms clock — recomputable from the run id alone, so
 * readers can verify any run without shared state.
 */
std::vector<TimeSeries>
makeRunSeries(std::size_t length, double base)
{
    std::vector<double> a(length);
    std::vector<double> b(length);
    for (std::size_t t = 0; t < length; ++t) {
        a[t] = base + static_cast<double>(t);
        b[t] = 2.0 * base + static_cast<double>(t);
    }
    return {TimeSeries("EV_A", std::move(a), 10.0),
            TimeSeries("EV_B", std::move(b), 10.0)};
}

// --- Database ----------------------------------------------------------

TEST(Database, AddRunAndQuery)
{
    Database db("haswell-e");
    const RunId id =
        db.addRun("wordcount", "hibench", "mlpx", 1234.0, makeSeries());
    EXPECT_EQ(db.runCount(), 1u);

    const RunMetadata &meta = db.runInfo(id);
    EXPECT_EQ(meta.program, "wordcount");
    EXPECT_EQ(meta.mode, "mlpx");
    EXPECT_DOUBLE_EQ(meta.execTimeMs, 1234.0);
    ASSERT_EQ(meta.events.size(), 2u);
    EXPECT_EQ(meta.events[0], "EV_A");

    const auto values = db.seriesValues(id, "EV_B");
    ASSERT_EQ(values.size(), 3u);
    EXPECT_DOUBLE_EQ(values[2], 6.0);
    EXPECT_DOUBLE_EQ(db.seriesIntervalMs(id), 10.0);
}

TEST(Database, TryAddRunRejectsUnusableRunsRecoverably)
{
    Database db;
    // Empty series set.
    EXPECT_FALSE(db.tryAddRun("p", "s", "mlpx", 1.0, {}).ok());

    // Per-series length mismatch names the offending event.
    auto ragged = makeSeries();
    ragged[1] = TimeSeries("EV_B", {4.0, 5.0}, 10.0);
    const auto mismatch = db.tryAddRun("p", "s", "mlpx", 1.0, ragged);
    ASSERT_FALSE(mismatch.ok());
    EXPECT_EQ(mismatch.status().code(),
              cminer::util::StatusCode::DataError);
    EXPECT_NE(mismatch.status().message().find("EV_B"),
              std::string::npos);

    // Nonsense execution times.
    EXPECT_FALSE(db.tryAddRun("p", "s", "mlpx", -1.0, makeSeries()).ok());
    EXPECT_FALSE(
        db.tryAddRun("p", "s", "mlpx",
                     std::numeric_limits<double>::quiet_NaN(),
                     makeSeries())
            .ok());

    // Nothing was recorded by the failures; a good run still lands.
    EXPECT_EQ(db.runCount(), 0u);
    const auto good = db.tryAddRun("p", "s", "mlpx", 1.0, makeSeries());
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(db.runCount(), 1u);
    // The throwing wrapper delegates to the same checks.
    EXPECT_THROW(db.addRun("p", "s", "mlpx", -1.0, makeSeries()),
                 FatalError);
}

TEST(Database, TwoLevelOrganization)
{
    Database db;
    const RunId id =
        db.addRun("sort", "hibench", "ocoe", 10.0, makeSeries());
    // Level 1: the catalog entry for the run, naming its level-2 table.
    EXPECT_EQ(db.runCount(), 1u);
    const RunMetadata &meta = db.runInfo(id);
    EXPECT_EQ(meta.seriesTable, "run_" + std::to_string(id));
    EXPECT_EQ(meta.events, (std::vector<std::string>{"EV_A", "EV_B"}));
    // Level 2: the run's series, one column per event and one value
    // per interval.
    const StoreSnapshot snap = db.snapshot();
    EXPECT_EQ(snap.length(id), 3u);
    EXPECT_EQ(snap.values(id, 0)[2], 3.0);
    EXPECT_EQ(snap.values(id, "EV_B")[0], 4.0);
}

TEST(Database, FindRunsByProgramAndMode)
{
    Database db;
    db.addRun("a", "s", "ocoe", 1.0, makeSeries());
    db.addRun("a", "s", "mlpx", 1.0, makeSeries());
    db.addRun("b", "s", "mlpx", 1.0, makeSeries());
    EXPECT_EQ(db.findRuns("a").size(), 2u);
    EXPECT_EQ(db.findRuns("a", "mlpx").size(), 1u);
    EXPECT_EQ(db.findRuns("c").size(), 0u);
    const auto programs = db.programs();
    ASSERT_EQ(programs.size(), 2u);
    EXPECT_EQ(programs[0], "a");
}

TEST(Database, MismatchedSeriesLengthsRejected)
{
    Database db;
    std::vector<TimeSeries> bad = {TimeSeries("A", {1.0, 2.0}),
                                   TimeSeries("B", {1.0})};
    EXPECT_THROW(db.addRun("p", "s", "ocoe", 1.0, bad), FatalError);
}

TEST(Database, UnknownRunAndEventRejected)
{
    Database db;
    const RunId id = db.addRun("p", "s", "ocoe", 1.0, makeSeries());
    EXPECT_THROW(db.runInfo(id + 100), FatalError);
    EXPECT_THROW(db.seriesValues(id, "NO_SUCH_EVENT"), FatalError);
}

TEST(Database, SaveLoadRoundTrip)
{
    const std::string path = "/tmp/cminer_db_test.cmdb";
    {
        Database db("haswell-e");
        db.addRun("wordcount", "hibench", "mlpx", 42.0, makeSeries());
        db.addRun("sort", "hibench", "ocoe", 24.0, makeSeries());
        db.save(path);
    }
    const Database loaded = Database::load(path);
    EXPECT_EQ(loaded.microarch(), "haswell-e");
    EXPECT_EQ(loaded.runCount(), 2u);
    const auto runs = loaded.findRuns("wordcount");
    ASSERT_EQ(runs.size(), 1u);
    const auto values = loaded.seriesValues(runs[0], "EV_A");
    ASSERT_EQ(values.size(), 3u);
    EXPECT_DOUBLE_EQ(values[1], 2.0);
    EXPECT_DOUBLE_EQ(loaded.runInfo(runs[0]).execTimeMs, 42.0);
    std::filesystem::remove(path);
}

TEST(Database, EmptyDatabaseSavesAndLoads)
{
    const std::string path = "/tmp/cminer_db_empty.cmdb";
    Database("skylake-x").save(path);
    Database loaded = Database::load(path);
    EXPECT_EQ(loaded.microarch(), "skylake-x");
    EXPECT_EQ(loaded.runCount(), 0u);
    EXPECT_TRUE(loaded.programs().empty());
    // The first run added to it takes id 0.
    EXPECT_EQ(loaded.addRun("p", "s", "mlpx", 1.0, makeSeries()), 0);
    std::filesystem::remove(path);
}

TEST(Database, LoadedDatabaseAcceptsRunsAndSavesAgain)
{
    const std::string path = "/tmp/cminer_db_extend.cmdb";
    const std::string again = "/tmp/cminer_db_extend_again.cmdb";
    {
        Database db("haswell-e");
        db.addRun("wordcount", "hibench", "mlpx", 42.0, makeSeries());
        db.addRun("sort", "hibench", "ocoe", 24.0, makeSeries());
        db.save(path);
    }
    Database loaded = Database::load(path);
    // Ids continue from the file's last run; the new run stays
    // buffered beside the mapped segment, and both read back.
    const RunId id = loaded.addRun(
        "scan", "hibench", "mlpx", 12.0,
        {TimeSeries("EV_A", {7.0, 8.0}, 5.0),
         TimeSeries("EV_C", {9.0, 10.0}, 5.0)});
    EXPECT_EQ(id, 2);
    EXPECT_EQ(loaded.runCount(), 3u);
    EXPECT_EQ(loaded.storeStats().bufferedRuns, 1u);
    EXPECT_EQ(loaded.seriesValues(1, "EV_B")[2], 6.0);
    EXPECT_EQ(loaded.seriesValues(id, "EV_C")[1], 10.0);
    // flush() has no directory to seal into: the run stays buffered.
    loaded.flush();
    EXPECT_EQ(loaded.storeStats().bufferedRuns, 1u);

    // Saving writes the mapped and the buffered runs into one file,
    // here over the file the database was loaded from (save replaces
    // it by rename, so the live mapping keeps the old pages).
    loaded.save(path);
    loaded.save(again);
    EXPECT_EQ(readBytes(path), readBytes(again));
    Database reloaded = Database::load(path);
    ASSERT_EQ(reloaded.runCount(), 3u);
    EXPECT_EQ(reloaded.findRuns("scan"), std::vector<RunId>{2});
    EXPECT_DOUBLE_EQ(reloaded.seriesIntervalMs(2), 5.0);
    EXPECT_EQ(reloaded.seriesValues(2, "EV_A")[0], 7.0);
    EXPECT_EQ(reloaded.seriesValues(0, "EV_A")[2], 3.0);
    std::filesystem::remove(path);
    std::filesystem::remove(again);
}

TEST(Database, LoadRejectsGarbage)
{
    const std::string path = "/tmp/cminer_db_garbage.cmdb";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fputs("not a database", f);
        std::fclose(f);
    }
    EXPECT_THROW(Database::load(path), FatalError);
    std::filesystem::remove(path);
}

TEST(Database, LoadMissingFileThrows)
{
    EXPECT_THROW(Database::load("/nonexistent/db.cmdb"), FatalError);
}

TEST(Database, ExportCsvWritesCatalogAndRuns)
{
    const std::string dir = "/tmp/cminer_db_export";
    std::filesystem::remove_all(dir);
    Database db;
    const RunId id = db.addRun("p", "s", "mlpx", 1.0, makeSeries());
    db.exportCsv(dir);
    EXPECT_TRUE(std::filesystem::exists(dir + "/catalog.csv"));
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/run_" + std::to_string(id) + ".csv"));
    std::filesystem::remove_all(dir);
}

TEST(Database, ExportCsvIntoARegularFileIsAFatalError)
{
    const std::string path = "/tmp/cminer_db_export_file";
    std::filesystem::remove_all(path);
    writeBytes(path, "not a directory");
    Database db;
    db.addRun("p", "s", "mlpx", 1.0, makeSeries());
    try {
        db.exportCsv(path);
        ADD_FAILURE() << "exportCsv into a regular file succeeded";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

TEST(Database, EmptyRunRejected)
{
    Database db;
    EXPECT_THROW(db.addRun("p", "s", "ocoe", 1.0, {}), FatalError);
}

// --- mixed-sampling-interval rejection (regression) ---------------------

TEST(Database, MixedSamplingIntervalsRejected)
{
    Database db;
    // EV_A every 10 ms, EV_B every 5 ms: not one run's worth of data.
    const std::vector<TimeSeries> mixed = {
        TimeSeries("EV_A", {1.0, 2.0, 3.0}, 10.0),
        TimeSeries("EV_B", {4.0, 5.0, 6.0}, 5.0)};
    const auto rejected = db.tryAddRun("p", "s", "mlpx", 1.0, mixed);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::DataError);
    EXPECT_NE(rejected.status().message().find("EV_B"),
              std::string::npos);
    EXPECT_NE(rejected.status().message().find("interval"),
              std::string::npos);
    // Nothing was recorded, and the throwing wrapper agrees.
    EXPECT_EQ(db.runCount(), 0u);
    EXPECT_THROW(db.addRun("p", "s", "mlpx", 1.0, mixed), FatalError);
    EXPECT_EQ(db.runCount(), 0u);
    // A run on a single clock still lands.
    db.addRun("p", "s", "mlpx", 1.0, makeSeries());
    EXPECT_EQ(db.runCount(), 1u);
}

TEST(OutOfCoreDatabase, MixedSamplingIntervalsRejected)
{
    const std::string dir = storeDir("mixed_interval");
    StoreOptions options;
    options.directory = dir;
    {
        Database db = Database::openStore(options);
        const std::vector<TimeSeries> mixed = {
            TimeSeries("EV_A", {1.0, 2.0}, 10.0),
            TimeSeries("EV_B", {3.0, 4.0}, 20.0)};
        const auto rejected =
            db.tryAddRun("p", "s", "mlpx", 1.0, mixed);
        ASSERT_FALSE(rejected.ok());
        EXPECT_EQ(rejected.status().code(), StatusCode::DataError);
        EXPECT_NE(rejected.status().message().find("EV_B"),
                  std::string::npos);
        EXPECT_EQ(db.runCount(), 0u);
        db.addRun("p", "s", "mlpx", 1.0, makeRunSeries(8, 5.0));
        EXPECT_EQ(db.runCount(), 1u);
    }
    std::filesystem::remove_all(dir);
}

// --- CSV export precision and stale-file cleanup (regression) -----------

TEST(Database, ExportCsvDoublesRoundTripExactly)
{
    const std::string dir = "/tmp/cminer_db_export_exact";
    std::filesystem::remove_all(dir);
    // Values chosen to lose bits under anything shorter than %.17g.
    const std::vector<double> nasty = {
        1.0 / 3.0,
        0.1,
        std::nextafter(1.0, 2.0),
        1e-300,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        123456789.123456789,
    };
    Database db;
    db.addRun("p", "s", "mlpx", 1.0 / 3.0,
              {TimeSeries("EV_X", nasty, 10.0)});
    db.exportCsv(dir);

    std::ifstream csv(dir + "/run_0.csv");
    std::string line;
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line, "interval,EV_X");
    for (std::size_t t = 0; t < nasty.size(); ++t) {
        ASSERT_TRUE(std::getline(csv, line)) << "row " << t;
        const auto comma = line.find(',');
        ASSERT_NE(comma, std::string::npos) << line;
        // Load-back equality must be exact, not approximate: %.17g
        // carries every bit of a double through text.
        const double parsed =
            std::strtod(line.c_str() + comma + 1, nullptr);
        EXPECT_EQ(parsed, nasty[t]) << line;
    }

    // The catalog's execution time gets the same treatment.
    char exact[64];
    std::snprintf(exact, sizeof exact, "%.17g", 1.0 / 3.0);
    EXPECT_NE(readBytes(dir + "/catalog.csv").find(exact),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Database, ExportCsvRemovesStaleRunFiles)
{
    const std::string dir = "/tmp/cminer_db_export_stale";
    std::filesystem::remove_all(dir);
    Database big;
    for (int i = 0; i < 3; ++i)
        big.addRun("p", "s", "mlpx", 1.0, makeSeries());
    big.exportCsv(dir);
    EXPECT_TRUE(std::filesystem::exists(dir + "/run_2.csv"));

    // Files that are not ours must survive the cleanup.
    writeBytes(dir + "/notes.txt", "keep");
    writeBytes(dir + "/run_x.csv", "keep");
    // An id too large for RunId is stale too, not a parse failure.
    writeBytes(dir + "/run_99999999999999999999.csv", "stale");

    Database small;
    small.addRun("p", "s", "mlpx", 1.0, makeSeries());
    small.exportCsv(dir);

    // The directory now equals exactly the smaller database: the two
    // stale run files from the previous export are gone.
    EXPECT_TRUE(std::filesystem::exists(dir + "/catalog.csv"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/run_0.csv"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/run_1.csv"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/run_2.csv"));
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/run_99999999999999999999.csv"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/notes.txt"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/run_x.csv"));
    std::filesystem::remove_all(dir);
}

// --- out-of-core lifecycle ----------------------------------------------

TEST(OutOfCoreDatabase, SealedStoreReopensWithIdenticalContents)
{
    const std::string dir = storeDir("roundtrip");
    StoreOptions options;
    options.directory = dir;
    // Payload of makeRunSeries(64, ·) is 1 KiB, so every 4th run seals.
    options.sealThresholdBytes = 4096;
    constexpr std::size_t runs = 10;
    constexpr std::size_t length = 64;
    {
        Database db = Database::openStore(options);
        for (std::size_t i = 0; i < runs; ++i)
            db.addRun("prog" + std::to_string(i % 3), "suite",
                      i % 2 != 0 ? "mlpx" : "ocoe",
                      100.0 + static_cast<double>(i),
                      makeRunSeries(length,
                                    static_cast<double>(i) * 1000.0));
        db.flush();
        db.waitForStoreMaintenance();
        const StoreStats stats = db.storeStats();
        EXPECT_EQ(stats.sealedRuns, runs);
        EXPECT_EQ(stats.bufferedRuns, 0u);
        EXPECT_GE(stats.seals, 1u);
    }

    // A new process over the same directory sees the identical fleet.
    Database db = Database::openStore(options);
    ASSERT_EQ(db.runCount(), runs);
    for (std::size_t i = 0; i < runs; ++i) {
        const RunId id = static_cast<RunId>(i);
        const RunMetadata &meta = db.runInfo(id);
        EXPECT_EQ(meta.program, "prog" + std::to_string(i % 3));
        EXPECT_EQ(meta.mode, i % 2 != 0 ? "mlpx" : "ocoe");
        EXPECT_DOUBLE_EQ(meta.execTimeMs,
                         100.0 + static_cast<double>(i));
        EXPECT_DOUBLE_EQ(db.seriesIntervalMs(id), 10.0);
        ASSERT_EQ(db.seriesLength(id), length);
        const auto values = db.seriesValues(id, "EV_B");
        ASSERT_EQ(values.size(), length);
        for (std::size_t t = 0; t < length; ++t)
            EXPECT_EQ(values[t], 2000.0 * static_cast<double>(i) +
                                     static_cast<double>(t));
    }
    EXPECT_EQ(db.findRuns("prog1").size(), 3u);
    EXPECT_EQ(db.findRuns("prog0", "ocoe").size(), 2u);
    const auto programs = db.programs();
    ASSERT_EQ(programs.size(), 3u);
    EXPECT_EQ(programs.front(), "prog0");
    EXPECT_THROW(db.runInfo(static_cast<RunId>(runs) + 7), FatalError);

    // CSV export reads through a snapshot of the segments.
    const std::string csv_dir = dir + "_csv";
    db.exportCsv(csv_dir);
    EXPECT_TRUE(std::filesystem::exists(csv_dir + "/catalog.csv"));
    EXPECT_TRUE(std::filesystem::exists(csv_dir + "/run_9.csv"));
    std::filesystem::remove_all(csv_dir);
    std::filesystem::remove_all(dir);
}

TEST(OutOfCoreDatabase, SnapshotSpansSurviveSealAndCompaction)
{
    const std::string dir = storeDir("snapshot_pins");
    StoreOptions options;
    options.directory = dir;
    options.sealThresholdBytes = 4096; // 4 runs of makeRunSeries(64, ·)
    // Room for the fan-in: each sealed segment is ~4.6 KiB (payload
    // plus catalog), so the derived 16 KiB target would cap a merge at
    // 3 inputs — below compactFanIn — and compaction would never fire.
    options.compactTargetBytes = 64ull << 10;
    // No maintenance pool: compaction runs inline, deterministically.
    Database db = Database::openStore(options);

    auto base = [](std::size_t i) {
        return static_cast<double>(i) * 1000.0;
    };
    for (std::size_t i = 0; i < 2; ++i)
        db.addRun("p", "s", "mlpx", 1.0, makeRunSeries(64, base(i)));

    // Pin a snapshot while both runs are still in the write buffer.
    const StoreSnapshot buffered_snap = db.snapshot();
    const auto buffered_span = buffered_snap.values(0, "EV_A");
    const std::vector<double> buffered_copy(buffered_span.begin(),
                                            buffered_span.end());

    for (std::size_t i = 2; i < 8; ++i)
        db.addRun("p", "s", "mlpx", 1.0, makeRunSeries(64, base(i)));
    db.flush();

    // Pin a snapshot whose spans come off segment mappings that the
    // upcoming compaction will merge away and unlink.
    const StoreSnapshot sealed_snap = db.snapshot();
    const auto sealed_span = sealed_snap.values(4, "EV_A");
    const std::vector<double> sealed_copy(sealed_span.begin(),
                                          sealed_span.end());

    for (std::size_t i = 8; i < 32; ++i)
        db.addRun("p", "s", "mlpx", 1.0, makeRunSeries(64, base(i)));
    db.flush();
    db.waitForStoreMaintenance();
    EXPECT_GE(db.storeStats().compactions, 1u);

    // Both old snapshots still see exactly the world they pinned: same
    // run counts, same addresses, same bytes.
    ASSERT_EQ(buffered_snap.runCount(), 2u);
    ASSERT_EQ(sealed_snap.runCount(), 8u);
    const auto buffered_again = buffered_snap.values(0, "EV_A");
    EXPECT_EQ(buffered_again.data(), buffered_span.data());
    ASSERT_EQ(buffered_again.size(), buffered_copy.size());
    for (std::size_t t = 0; t < buffered_copy.size(); ++t)
        EXPECT_EQ(buffered_again[t], buffered_copy[t]);
    const auto sealed_again = sealed_snap.values(4, "EV_A");
    EXPECT_EQ(sealed_again.data(), sealed_span.data());
    ASSERT_EQ(sealed_again.size(), sealed_copy.size());
    for (std::size_t t = 0; t < sealed_copy.size(); ++t)
        EXPECT_EQ(sealed_again[t], sealed_copy[t]);

    // And the live view serves every run correctly off the merged
    // segments.
    const StoreSnapshot now = db.snapshot();
    ASSERT_EQ(now.runCount(), 32u);
    for (const std::size_t i : {std::size_t{0}, std::size_t{31}}) {
        const auto values = now.values(static_cast<RunId>(i), "EV_A");
        ASSERT_EQ(values.size(), 64u);
        EXPECT_EQ(values[7], base(i) + 7.0);
    }
    std::filesystem::remove_all(dir);
}

TEST(OutOfCoreDatabase, MicroarchMismatchRefusesToOpen)
{
    const std::string dir = storeDir("microarch");
    StoreOptions options;
    options.directory = dir;
    options.microarch = "haswell-e";
    {
        Database db = Database::openStore(options);
        db.addRun("p", "s", "mlpx", 1.0, makeRunSeries(8, 1.0));
        db.flush();
    }
    options.microarch = "skylake-x";
    const auto reopened = Database::tryOpenStore(options);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.status().code(), StatusCode::DataError);
    EXPECT_NE(reopened.status().message().find("haswell-e"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(OutOfCoreDatabase, GapInSegmentIdsRefusesToOpen)
{
    const std::string dir = storeDir("gap");
    StoreOptions options;
    options.directory = dir;
    options.compactFanIn = 100; // keep the two segments distinct
    {
        Database db = Database::openStore(options);
        for (std::size_t i = 0; i < 8; ++i) {
            db.addRun("p", "s", "mlpx", 1.0,
                      makeRunSeries(16, static_cast<double>(i)));
            if (i == 3)
                db.flush(); // segment [0..3]
        }
        db.flush(); // segment [4..7]
    }
    // Losing the first segment leaves ids 0..3 unaccounted for — the
    // store must refuse rather than silently renumber the survivors.
    bool removed = false;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.find("_000000000000_") != std::string::npos) {
            std::filesystem::remove(entry.path());
            removed = true;
        }
    }
    ASSERT_TRUE(removed);
    const auto reopened = Database::tryOpenStore(options);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.status().code(), StatusCode::DataError);
    std::filesystem::remove_all(dir);
}

TEST(OutOfCoreDatabase, InterruptedCompactionLeftoversResolved)
{
    // Simulate a compaction that wrote its merged output and crashed
    // before retiring the inputs: the directory then holds one segment
    // covering [0..7] AND the two inputs [0..3], [4..7]. Reopening must
    // keep exactly one copy of every run and delete the stale inputs.
    const std::string dir_a = storeDir("interrupted_a");
    const std::string dir_b = storeDir("interrupted_b");
    auto fill = [](Database &db, std::size_t flush_every) {
        for (std::size_t i = 0; i < 8; ++i) {
            db.addRun("p", "s", "mlpx", 1.0 + static_cast<double>(i),
                      makeRunSeries(16,
                                    static_cast<double>(i) * 100.0));
            if ((i + 1) % flush_every == 0)
                db.flush();
        }
        db.flush();
    };
    StoreOptions options;
    options.directory = dir_a;
    options.compactFanIn = 100; // no real compaction in this test
    {
        Database db = Database::openStore(options);
        fill(db, 4); // two input segments
    }
    StoreOptions merged = options;
    merged.directory = dir_b;
    {
        Database db = Database::openStore(merged);
        fill(db, 8); // one segment holding the same 8 runs
    }
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_b)) {
        std::filesystem::copy_file(
            entry.path(), dir_a + "/" +
                              entry.path().filename().string());
    }

    Database db = Database::openStore(options);
    ASSERT_EQ(db.runCount(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        const auto values =
            db.seriesValues(static_cast<RunId>(i), "EV_A");
        ASSERT_EQ(values.size(), 16u);
        EXPECT_EQ(values[3], static_cast<double>(i) * 100.0 + 3.0);
    }
    // The stale inputs were unlinked during open.
    std::size_t segment_files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_a)) {
        if (entry.path().extension() == ".cmseg")
            ++segment_files;
    }
    EXPECT_EQ(segment_files, 1u);
    std::filesystem::remove_all(dir_a);
    std::filesystem::remove_all(dir_b);
}

/** Regular files in `dir` with `extension` (directories not counted). */
std::size_t
countFiles(const std::string &dir, const std::string &extension)
{
    std::size_t n = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == extension)
            ++n;
    }
    return n;
}

/** Checks every run in [0, runs) against makeRunSeries(64, 1000 * id). */
void
expectFormulaRuns(const StoreSnapshot &snap, std::size_t runs)
{
    ASSERT_EQ(snap.runCount(), runs);
    for (std::size_t i = 0; i < runs; ++i) {
        const auto values = snap.values(static_cast<RunId>(i), "EV_A");
        ASSERT_EQ(values.size(), 64u);
        for (std::size_t t = 0; t < values.size(); ++t)
            EXPECT_EQ(values[t], 1000.0 * static_cast<double>(i) +
                                     static_cast<double>(t));
    }
}

TEST(OutOfCoreDatabase, BlockedSealKeepsRunsBufferedAndRetries)
{
    const std::string dir = storeDir("blocked_seal");
    StoreOptions options;
    options.directory = dir;
    options.sealThresholdBytes = 4096; // the 4th run seals
    // A fresh store's first seal covers runs [0, 3] as generation 0;
    // a directory in its temp slot makes the seal's open fail.
    const std::string blocker =
        dir + "/seg_000000000000_000000000003_g000000.cmseg.tmp";
    std::filesystem::create_directories(blocker);
    {
        Database db = Database::openStore(options);
        for (std::size_t i = 0; i < 4; ++i)
            db.addRun("p", "s", "mlpx", 1.0,
                      makeRunSeries(64, static_cast<double>(i) * 1000.0));
        StoreStats stats = db.storeStats();
        EXPECT_EQ(stats.sealFailures, 1u);
        EXPECT_EQ(stats.seals, 0u);
        EXPECT_EQ(stats.segmentCount, 0u);
        EXPECT_EQ(stats.bufferedRuns, 4u);
        expectFormulaRuns(db.snapshot(), 4);
        EXPECT_EQ(countFiles(dir, ".cmseg"), 0u);
        EXPECT_EQ(countFiles(dir, ".tmp"), 0u);

        // With the slot free again, the next addRun seals every run.
        std::filesystem::remove(blocker);
        db.addRun("p", "s", "mlpx", 1.0, makeRunSeries(64, 4000.0));
        stats = db.storeStats();
        EXPECT_EQ(stats.sealFailures, 1u);
        EXPECT_EQ(stats.seals, 1u);
        EXPECT_EQ(stats.bufferedRuns, 0u);
        EXPECT_EQ(stats.sealedRuns, 5u);
        EXPECT_EQ(countFiles(dir, ".cmseg"), 1u);
        EXPECT_EQ(countFiles(dir, ".tmp"), 0u);
    }
    Database reopened = Database::openStore(options);
    expectFormulaRuns(reopened.snapshot(), 5);
    std::filesystem::remove_all(dir);
}

TEST(OutOfCoreDatabase, BlockedCompactionKeepsInputs)
{
    const std::string dir = storeDir("blocked_compaction");
    StoreOptions options;
    options.directory = dir;
    options.sealThresholdBytes = 4096;        // seal every 4 runs
    options.compactTargetBytes = 64ull << 10; // 4 seals fit one merge
    // Seals take generations 0-3; the 4th seal triggers the merge of
    // all four, which writes [0, 15] as generation 4.
    const std::string blocker =
        dir + "/seg_000000000000_000000000015_g000004.cmseg.tmp";
    std::filesystem::create_directories(blocker);
    {
        Database db = Database::openStore(options);
        for (std::size_t i = 0; i < 16; ++i)
            db.addRun("p", "s", "mlpx", 1.0,
                      makeRunSeries(64, static_cast<double>(i) * 1000.0));
        StoreStats stats = db.storeStats();
        EXPECT_EQ(stats.seals, 4u);
        EXPECT_EQ(stats.compactionFailures, 1u);
        EXPECT_EQ(stats.compactions, 0u);
        EXPECT_EQ(stats.segmentCount, 4u);
        EXPECT_EQ(countFiles(dir, ".cmseg"), 4u);
        EXPECT_EQ(countFiles(dir, ".tmp"), 0u);
        expectFormulaRuns(db.snapshot(), 16);

        // The next maintenance round merges the kept inputs.
        std::filesystem::remove(blocker);
        db.flush();
        stats = db.storeStats();
        EXPECT_EQ(stats.compactionFailures, 1u);
        EXPECT_EQ(stats.compactions, 1u);
        EXPECT_EQ(stats.segmentCount, 1u);
        EXPECT_EQ(countFiles(dir, ".cmseg"), 1u);
        expectFormulaRuns(db.snapshot(), 16);
    }
    Database reopened = Database::openStore(options);
    expectFormulaRuns(reopened.snapshot(), 16);
    std::filesystem::remove_all(dir);
}

// --- on-disk byte identity against a reference encoder ------------------

/**
 * Value-by-value little-endian encoder, independent of
 * util::BinaryWriter, so the byte-identity tests below pin the segment
 * format itself rather than whatever the writer happens to emit.
 */
struct ReferenceBytes
{
    std::string bytes;
    std::size_t padding = 0; ///< alignment bytes emitted so far

    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(std::string_view s)
    {
        u64(s.size());
        for (const char c : s)
            bytes.push_back(c);
    }
    void align8()
    {
        while (bytes.size() % 8 != 0) {
            bytes.push_back('\0');
            ++padding;
        }
    }
    void patchU64(std::size_t at, std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes[at + static_cast<std::size_t>(i)] =
                static_cast<char>((v >> (8 * i)) & 0xff);
    }
};

/** A run as handed to Database::addRun, ids assigned from 0. */
struct ReferenceRun
{
    std::string program;
    std::string mode;
    double execTimeMs = 0.0;
    std::vector<TimeSeries> series;
};

/**
 * The DESIGN.md §15 segment container for `runs` with ids
 * [0, runs.size()), built value by value: the §12 header, then the
 * meta, columns (each column 8-byte aligned), catalog and index
 * sections.
 */
ReferenceBytes
referenceSegment(const std::string &microarch,
                 const std::vector<ReferenceRun> &runs)
{
    ReferenceBytes out;
    for (const char c : std::string_view("CMCHKPT1"))
        out.bytes.push_back(c);
    out.u32(1);
    const std::size_t file_size_at = out.bytes.size();
    out.u64(0);
    out.str("cminer-segment");
    out.u32(1);
    out.u64(4);
    std::size_t size_at = 0;
    auto begin = [&](std::string_view name) {
        out.str(name);
        size_at = out.bytes.size();
        out.u64(0);
    };
    auto end = [&] {
        out.patchU64(size_at, out.bytes.size() - size_at - 8);
    };

    begin("meta");
    out.str(microarch);
    out.u64(0);
    out.u64(runs.size());
    end();

    std::vector<std::vector<std::uint64_t>> offsets(runs.size());
    begin("columns");
    for (std::size_t r = 0; r < runs.size(); ++r) {
        for (const TimeSeries &s : runs[r].series) {
            out.align8();
            offsets[r].push_back(out.bytes.size());
            for (const double v : s.values())
                out.f64(v);
        }
    }
    end();

    begin("catalog");
    out.u64(runs.size());
    for (std::size_t r = 0; r < runs.size(); ++r) {
        const ReferenceRun &run = runs[r];
        out.u64(r);
        out.str(run.program);
        out.str("suite");
        out.str(run.mode);
        out.f64(run.execTimeMs);
        out.f64(run.series.front().intervalMs());
        out.u64(run.series.front().size());
        out.u64(run.series.size());
        for (std::size_t e = 0; e < run.series.size(); ++e) {
            out.str(run.series[e].eventName());
            out.u64(offsets[r][e]);
        }
    }
    end();

    std::map<std::string, std::vector<std::uint64_t>> index;
    for (std::size_t r = 0; r < runs.size(); ++r)
        index[runs[r].program].push_back(r);
    begin("index");
    out.u64(index.size());
    for (const auto &[program, ordinals] : index) {
        out.str(program);
        out.u64(ordinals.size());
        for (const std::uint64_t ordinal : ordinals)
            out.u64(ordinal);
    }
    end();

    out.patchU64(file_size_at, out.bytes.size());
    return out;
}

/**
 * Eight runs of varied shape: three programs, both modes, lengths 5 to
 * 12, a third event on odd runs, and values that include -0.0 and a
 * subnormal, whose bit patterns a lossy encoding would not keep.
 */
std::vector<ReferenceRun>
referenceRuns()
{
    std::vector<ReferenceRun> runs;
    for (std::size_t i = 0; i < 8; ++i) {
        ReferenceRun run;
        run.program = "prog" + std::to_string(i % 3);
        run.mode = i % 2 != 0 ? "mlpx" : "ocoe";
        run.execTimeMs = 100.0 + 0.5 * static_cast<double>(i);
        run.series = makeRunSeries(5 + i, static_cast<double>(i) * 10.0);
        if (i % 2 != 0) {
            std::vector<double> c(5 + i, -0.0);
            c.back() = std::numeric_limits<double>::denorm_min();
            run.series.emplace_back("EV_C", std::move(c), 10.0);
        }
        runs.push_back(std::move(run));
    }
    return runs;
}

/** Ingest `runs`, flushing after every `flush_every` runs. */
void
ingest(Database &db, const std::vector<ReferenceRun> &runs,
       std::size_t flush_every)
{
    for (std::size_t i = 0; i < runs.size(); ++i) {
        db.addRun(runs[i].program, "suite", runs[i].mode,
                  runs[i].execTimeMs, runs[i].series);
        if ((i + 1) % flush_every == 0)
            db.flush();
    }
    db.flush();
}

/** Bytes of the single segment file in `dir` ("" unless exactly one). */
std::string
onlySegmentBytes(const std::string &dir)
{
    std::vector<std::string> paths;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".cmseg")
            paths.push_back(entry.path().string());
    }
    return paths.size() == 1 ? readBytes(paths.front()) : "";
}

/** Index of the first differing byte, or npos when equal. */
std::size_t
firstDifference(std::string_view a, std::string_view b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i])
            return i;
    }
    return a.size() == b.size() ? std::string_view::npos : n;
}

TEST(SegmentFile, SealedBytesMatchReferenceEncoder)
{
    const auto runs = referenceRuns();
    // "haswell-e" leaves the first column 6 bytes short of 8-byte
    // alignment; a 7-character tag lands it aligned.
    for (const std::string microarch : {"haswell-e", "zen4-ep"}) {
        const std::string dir = storeDir("seal_bytes");
        StoreOptions options;
        options.directory = dir;
        options.microarch = microarch;
        {
            Database db = Database::openStore(options);
            ingest(db, runs, runs.size());
        }
        const ReferenceBytes expected = referenceSegment(microarch, runs);
        if (microarch == "haswell-e")
            EXPECT_EQ(expected.padding, 6u);
        else
            EXPECT_EQ(expected.padding, 0u);
        const std::string actual = onlySegmentBytes(dir);
        ASSERT_FALSE(actual.empty());
        EXPECT_EQ(actual.size(), expected.bytes.size()) << microarch;
        EXPECT_EQ(firstDifference(actual, expected.bytes),
                  std::string_view::npos)
            << microarch;
        std::filesystem::remove_all(dir);
    }
}

TEST(SegmentFile, CompactedBytesMatchOneSealAndReferenceEncoder)
{
    const auto runs = referenceRuns();
    StoreOptions options;
    options.microarch = "haswell-e";
    options.compactTargetBytes = 1ull << 20; // one merge takes all four

    // Four two-run seals, merged by inline compaction into one file.
    options.directory = storeDir("compact_bytes_merged");
    {
        Database db = Database::openStore(options);
        ingest(db, runs, 2);
        const StoreStats stats = db.storeStats();
        EXPECT_EQ(stats.seals, 4u);
        EXPECT_EQ(stats.compactions, 1u);
        EXPECT_EQ(stats.segmentCount, 1u);
    }
    const std::string merged = onlySegmentBytes(options.directory);
    std::filesystem::remove_all(options.directory);

    // The same runs sealed in one go.
    options.directory = storeDir("compact_bytes_single");
    {
        Database db = Database::openStore(options);
        ingest(db, runs, runs.size());
        EXPECT_EQ(db.storeStats().compactions, 0u);
    }
    const std::string single = onlySegmentBytes(options.directory);
    std::filesystem::remove_all(options.directory);

    ASSERT_FALSE(merged.empty());
    ASSERT_FALSE(single.empty());
    EXPECT_EQ(firstDifference(merged, single), std::string_view::npos);
    const ReferenceBytes expected = referenceSegment("haswell-e", runs);
    EXPECT_EQ(firstDifference(merged, expected.bytes),
              std::string_view::npos);
}

TEST(OutOfCoreDatabase, SaveFromSegmentsAndBufferRoundTripsBitForBit)
{
    const auto runs = referenceRuns();
    const std::string dir = storeDir("save_spread");
    const std::string path = dir + "_saved.cmdb";
    StoreOptions options;
    options.directory = dir;
    options.compactFanIn = 100; // keep the segments apart
    Database db = Database::openStore(options);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        db.addRun(runs[i].program, "suite", runs[i].mode,
                  runs[i].execTimeMs, runs[i].series);
        if (i == 2 || i == 5)
            db.flush(); // segments [0, 2] and [3, 5]
    }
    const StoreStats stats = db.storeStats();
    ASSERT_EQ(stats.segmentCount, 2u);
    ASSERT_EQ(stats.bufferedRuns, 2u);

    // One file holding every run, sealed or buffered, in id order: the
    // same bytes one seal of all eight runs would write.
    db.save(path);
    const ReferenceBytes expected = referenceSegment("haswell-e", runs);
    EXPECT_EQ(firstDifference(readBytes(path), expected.bytes),
              std::string_view::npos);

    const Database loaded = Database::load(path);
    ASSERT_EQ(loaded.runCount(), runs.size());
    const StoreSnapshot snap = loaded.snapshot();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunId id = static_cast<RunId>(i);
        const RunMetadata &meta = snap.runInfo(id);
        EXPECT_EQ(meta.program, runs[i].program);
        EXPECT_EQ(meta.mode, runs[i].mode);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(meta.execTimeMs),
                  std::bit_cast<std::uint64_t>(runs[i].execTimeMs));
        ASSERT_EQ(meta.events.size(), runs[i].series.size());
        for (std::size_t e = 0; e < meta.events.size(); ++e) {
            const auto &want = runs[i].series[e].values();
            const auto got = snap.values(id, e);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t t = 0; t < want.size(); ++t)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got[t]),
                          std::bit_cast<std::uint64_t>(want[t]))
                    << "run " << i << " event " << e << " t " << t;
        }
    }
    std::filesystem::remove(path);
    std::filesystem::remove_all(dir);
}

TEST(Database, LoadRejectsASegmentNotStartingAtRunZero)
{
    // A store directory's second segment starts at run 4: it is not a
    // saved database, and load() must say so rather than renumber.
    const std::string dir = storeDir("not_at_zero");
    StoreOptions options;
    options.directory = dir;
    options.compactFanIn = 100;
    std::string later;
    {
        Database db = Database::openStore(options);
        for (std::size_t i = 0; i < 8; ++i) {
            db.addRun("p", "s", "mlpx", 1.0,
                      makeRunSeries(16, static_cast<double>(i)));
            if (i == 3)
                db.flush();
        }
        db.flush();
    }
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("seg_000000000004_", 0) == 0)
            later = entry.path().string();
    }
    ASSERT_FALSE(later.empty());
    const auto loaded = Database::tryLoad(later);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::DataError);
    EXPECT_NE(loaded.status().message().find("first run id is 4"),
              std::string::npos)
        << loaded.status().message();
    std::filesystem::remove_all(dir);
}

// --- segment file corruption sweep (checkpoint_test style) --------------

/** Seal one small two-run segment and return its file path. */
std::string
buildSegmentFile(const std::string &dir)
{
    StoreOptions options;
    options.directory = dir;
    Database db = Database::openStore(options);
    db.addRun("p", "s", "mlpx", 1.0, makeRunSeries(4, 100.0));
    db.addRun("q", "s", "ocoe", 2.0, makeRunSeries(4, 200.0));
    db.flush();
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".cmseg")
            return entry.path().string();
    }
    return "";
}

TEST(SegmentFile, TruncationAtEveryByteFailsCleanly)
{
    const std::string dir = storeDir("seg_trunc");
    const std::string path = buildSegmentFile(dir);
    ASSERT_FALSE(path.empty());
    const std::string bytes = readBytes(path);
    ASSERT_GT(bytes.size(), 0u);

    const std::string victim = dir + "/victim.bin";
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        writeBytes(victim, std::string_view(bytes).substr(0, len));
        const auto opened = Segment::open(victim);
        ASSERT_FALSE(opened.ok()) << "prefix of " << len << " bytes";
        EXPECT_FALSE(opened.status().message().empty());
    }
    std::filesystem::remove_all(dir);
}

TEST(SegmentFile, ByteFlipsNeverCrash)
{
    const std::string dir = storeDir("seg_flip");
    const std::string path = buildSegmentFile(dir);
    ASSERT_FALSE(path.empty());
    const std::string bytes = readBytes(path);

    const std::string victim = dir + "/victim.bin";
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0xFF);
        writeBytes(victim, bad);
        // A flip inside a float payload can legitimately load as
        // garbage values; any flip in structure must come back as a
        // clean Status. Either way: no crash, no over-allocation.
        const auto opened = Segment::open(victim);
        if (!opened.ok()) {
            EXPECT_FALSE(opened.status().message().empty());
        } else {
            EXPECT_LE(opened.value()->runCount(), 2u);
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(SegmentFile, InflatedCountsNeverOverAllocate)
{
    const std::string dir = storeDir("seg_inflate");
    const std::string path = buildSegmentFile(dir);
    ASSERT_FALSE(path.empty());
    const std::string bytes = readBytes(path);

    // Saturating each byte turns every count/length/offset field it
    // touches into an enormous value; each must be caught against the
    // actual file size before any allocation sized from it.
    const std::string victim = dir + "/victim.bin";
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(0xFF);
        writeBytes(victim, bad);
        const auto opened = Segment::open(victim);
        if (!opened.ok()) {
            EXPECT_FALSE(opened.status().message().empty());
        } else {
            EXPECT_LE(opened.value()->runCount(), 2u);
        }
    }
    std::filesystem::remove_all(dir);
}

// --- snapshots under concurrent ingest and maintenance ------------------

TEST(OutOfCoreDatabase, SnapshotReadersStableUnderConcurrentIngest)
{
    const std::string dir = storeDir("concurrent");
    cminer::util::ThreadPool pool(2);
    StoreOptions options;
    options.directory = dir;
    options.sealThresholdBytes = 4096; // seal every 4 runs
    options.maintenancePool = &pool;   // compaction races the readers
    {
        Database db = Database::openStore(options);

        constexpr std::size_t total_runs = 96;
        constexpr std::size_t length = 64;
        auto base = [](RunId id) {
            return static_cast<double>(id) * 1000.0;
        };
        std::atomic<bool> done{false};
        std::atomic<bool> failed{false};

        // Each reader pins a fresh snapshot per pass and checks every
        // run it contains against the formula — across the buffer,
        // freshly sealed segments, and compacted merges.
        auto verify = [&](const StoreSnapshot &snap) {
            const auto n = static_cast<RunId>(snap.runCount());
            for (RunId id = 0; id < n; ++id) {
                const auto values = snap.values(id, "EV_A");
                if (values.size() != length ||
                    values[0] != base(id) ||
                    values[length - 1] !=
                        base(id) + static_cast<double>(length - 1)) {
                    failed = true;
                    return;
                }
                if (snap.runInfo(id).program != "p") {
                    failed = true;
                    return;
                }
            }
        };
        std::vector<std::thread> readers;
        for (int r = 0; r < 2; ++r)
            readers.emplace_back([&] {
                while (!done.load())
                    verify(db.snapshot());
            });

        for (std::size_t i = 0; i < total_runs; ++i)
            db.addRun("p", "s", "mlpx", 1.0,
                      makeRunSeries(length,
                                    base(static_cast<RunId>(i))));
        db.flush();
        done = true;
        for (auto &reader : readers)
            reader.join();
        db.waitForStoreMaintenance();

        EXPECT_FALSE(failed.load());
        EXPECT_EQ(db.runCount(), total_runs);
        verify(db.snapshot());
        EXPECT_FALSE(failed.load());
        EXPECT_GE(db.storeStats().seals, 2u);
    }
    std::filesystem::remove_all(dir);
}

} // namespace
