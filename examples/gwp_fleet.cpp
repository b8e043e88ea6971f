/**
 * @file
 * GWP-style continuous fleet profiling, out of core — the paper's
 * motivating setting ("CounterMiner can easily work with the Google
 * Wide Profiler"), at a data volume that no longer fits in RAM.
 *
 * A simulated fleet streams profiled windows into a directory-backed
 * segment store (DESIGN.md §15) whose memory budget is a fraction of
 * the ingested payload: the write buffer seals into memory-mapped
 * segment files, small segments compact in the background, and mining
 * reads zero-copy column spans straight off the mappings. The example
 * then proves the two acceptance properties:
 *
 *  1. Process RSS stays under the configured budget while the ingested
 *     payload exceeds it several times over.
 *  2. The importance ranking mined from the segment-backed store is
 *     bit-identical to one mined from a Database with no directory,
 *     whose runs all stay in RAM — at 1, 2, and 8 threads.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/collector.h"
#include "core/importance.h"
#include "pmu/event.h"
#include "store/database.h"
#include "ts/time_series.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

using namespace cminer;

namespace {

/** A /proc/self/status gauge in KiB (VmRSS, VmHWM), 0 if unreadable. */
std::size_t
procStatusKb(const std::string &key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(key + ":", 0) == 0)
            return static_cast<std::size_t>(
                std::stoull(line.substr(key.size() + 1)));
    }
    return 0;
}

/**
 * One synthetic profiled window: every event plus the IPC target,
 * sampled on one 10 ms clock. `bias` shifts the level so different
 * jobs look different.
 */
std::vector<ts::TimeSeries>
makeWindow(util::Rng &rng, const std::vector<std::string> &events,
           std::size_t length, double bias)
{
    std::vector<ts::TimeSeries> series;
    series.reserve(events.size());
    for (std::size_t e = 0; e < events.size(); ++e) {
        std::vector<double> values(length);
        const double level = bias * static_cast<double>(e + 1);
        for (auto &v : values)
            v = level + rng.gaussian(0.0, 0.1 * level + 1.0);
        series.emplace_back(events[e], std::move(values), 10.0);
    }
    return series;
}

} // namespace

int
main()
{
    const auto &catalog = pmu::EventCatalog::instance();

    // 16 programmable events plus the IPC target, the layout the
    // dataset builder expects (IPC last).
    std::vector<std::string> events;
    for (const auto id : catalog.programmableEvents()) {
        if (events.size() == 16)
            break;
        events.push_back(catalog.info(id).name);
    }
    events.push_back(core::ipc_series_name);

    const std::string store_dir = "gwp_fleet_store";
    std::filesystem::remove_all(store_dir);

    store::StoreOptions store_options;
    store_options.microarch = "haswell-e-fleet";
    store_options.directory = store_dir;
    store_options.memoryBudgetBytes = 96ull << 20;
    // Seal small and compact aggressively so the example exercises the
    // whole segment lifecycle; the target caps the merged file size
    // (a merge streams its columns, so it stages no container in RAM).
    store_options.sealThresholdBytes = 2ull << 20;
    store_options.compactTargetBytes = 12ull << 20;

    const std::size_t filler_jobs = 18;
    const std::size_t cycles = 21;
    const std::size_t window_len = 4096;
    const std::size_t hot_runs = 8;
    const std::size_t hot_len = 1024;

    std::printf("fleet ingest: %zu jobs x %zu cycles, %zu-interval "
                "windows, %zu events — budget %zu MB\n",
                filler_jobs, cycles, window_len, events.size(),
                store_options.memoryBudgetBytes >> 20);

    // The hot job's windows are kept aside so an all-in-RAM database
    // can be built from the very same values for the bit-identity
    // check.
    std::vector<std::vector<ts::TimeSeries>> hot_windows;
    std::size_t ingested_bytes = 0;

    {
        store::Database db = store::Database::openStore(store_options);
        util::Rng rng(55);
        std::size_t next_hot = 0;
        for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
            for (std::size_t j = 0; j < filler_jobs; ++j) {
                auto window = makeWindow(
                    rng, events, window_len,
                    100.0 + static_cast<double>(j));
                ingested_bytes +=
                    window.size() * window_len * sizeof(double);
                db.addRun("job_" + std::to_string(j), "fleet", "mlpx",
                          1500.0, window);
            }
            // The hot job shows up every few cycles, interleaved with
            // the filler so its runs span several segments.
            if (cycle % 3 == 1 && next_hot < hot_runs) {
                auto window =
                    makeWindow(rng, events, hot_len, 250.0);
                ingested_bytes +=
                    window.size() * hot_len * sizeof(double);
                db.addRun("websearch-hot", "fleet", "mlpx", 900.0,
                          window);
                hot_windows.push_back(std::move(window));
                ++next_hot;
            }
        }
        db.flush();
        db.waitForStoreMaintenance();

        const auto stats = db.storeStats();
        std::printf(
            "ingested %zu runs (%zu MB of samples) -> %zu segments "
            "(%zu MB on disk), %llu seals, %llu compactions\n",
            db.runCount(), ingested_bytes >> 20, stats.segmentCount,
            static_cast<std::size_t>(stats.segmentFileBytes) >> 20,
            static_cast<unsigned long long>(stats.seals),
            static_cast<unsigned long long>(stats.compactions));

        const std::size_t hwm_kb = procStatusKb("VmHWM");
        const std::size_t budget_kb =
            store_options.memoryBudgetBytes >> 10;
        std::printf("peak RSS %zu MB vs %zu MB budget (%zu MB of "
                    "ingest): %s\n",
                    hwm_kb >> 10, budget_kb >> 10, ingested_bytes >> 20,
                    hwm_kb <= budget_kb ? "UNDER BUDGET"
                                        : "OVER BUDGET");
    }

    // Reopen from disk: the fleet's history survives the process that
    // recorded it (the write buffer was flushed above).
    store::Database db = store::Database::openStore(store_options);
    std::printf("reopened %s: %zu runs across %zu segments\n\n",
                store_dir.c_str(), db.runCount(),
                db.storeStats().segmentCount);

    // The all-in-RAM reference, a Database with no directory, holds
    // only the hot job (that is the point: RAM cannot hold the fleet,
    // the segment files can — and both must agree wherever both
    // exist).
    store::Database ram("haswell-e-fleet");
    for (const auto &window : hot_windows)
        ram.addRun("websearch-hot", "fleet", "mlpx", 900.0, window);

    const auto store_ids = db.findRuns("websearch-hot");
    const auto ram_ids = ram.findRuns("websearch-hot");
    std::printf("mining 'websearch-hot': %zu windows out-of-core, %zu "
                "in RAM\n",
                store_ids.size(), ram_ids.size());

    core::ImportanceOptions options;
    options.minEvents = 8;
    const core::ImportanceRanker ranker(options);

    bool all_identical = true;
    util::TablePrinter table(
        {"threads", "top event", "importance %", "bit-identical"});
    for (const std::size_t threads : {1, 2, 8}) {
        util::Parallelism::setThreadCount(threads);
        const auto store_data = core::ImportanceRanker::
            buildDatasetFromStore(db, store_ids, catalog);
        const auto ram_data = core::ImportanceRanker::
            buildDatasetFromStore(ram, ram_ids, catalog);

        util::Rng store_rng(99);
        util::Rng ram_rng(99);
        const auto [store_ranking, store_error] =
            ranker.fitOnce(store_data, store_rng);
        const auto [ram_ranking, ram_error] =
            ranker.fitOnce(ram_data, ram_rng);

        bool identical =
            store_ranking.size() == ram_ranking.size() &&
            std::memcmp(&store_error, &ram_error, sizeof(double)) == 0;
        for (std::size_t i = 0; identical && i < store_ranking.size();
             ++i) {
            identical =
                store_ranking[i].feature == ram_ranking[i].feature &&
                std::memcmp(&store_ranking[i].importance,
                            &ram_ranking[i].importance,
                            sizeof(double)) == 0;
        }
        all_identical = all_identical && identical;
        table.addRow({std::to_string(threads),
                      store_ranking.front().feature,
                      util::formatDouble(
                          store_ranking.front().importance, 3),
                      identical ? "yes" : "NO"});
    }
    util::Parallelism::setThreadCount(0);
    table.print();

    std::printf("\nsegment-backed rankings %s the all-in-RAM database "
                "at every thread count\n",
                all_identical ? "bit-match" : "DIVERGE FROM");
    std::filesystem::remove_all(store_dir);
    return all_identical ? 0 : 1;
}
