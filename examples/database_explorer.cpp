/**
 * @file
 * Explore a recorded performance database: the operator-facing side of
 * the "big performance data" store.
 *
 *   ./database_explorer [file.cmdb]
 *
 * With no argument, records a small fresh database first. Shows:
 *   - per-program run statistics (the level-1 catalog view);
 *   - cross-run statistics of a chosen event;
 *   - a perf-style text dump of one run (Linux-perf interop);
 *   - nearest-run matching by DTW (find the golden OCOE run most
 *     similar to a given MLPX run, LB_Keogh accelerated);
 *   - optimization advice from the importance ranking.
 */

#include <cstdio>
#include <filesystem>

#include "core/advisor.h"
#include "core/counterminer.h"
#include "core/perf_text.h"
#include "pmu/event.h"
#include "store/database.h"
#include "store/query.h"
#include "ts/lb_keogh.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/suites.h"

using namespace cminer;

namespace {

store::Database
recordFreshDatabase()
{
    std::printf("no database given — recording a fresh one "
                "(sort + scan, 3 runs each)...\n");
    store::Database db("haswell-e");
    const auto &catalog = pmu::EventCatalog::instance();
    core::DataCollector collector(db, catalog);
    util::Rng rng(31);
    const auto &suite = workload::BenchmarkSuite::instance();
    std::vector<pmu::EventId> events = {
        catalog.idOf("ICACHE.MISSES"),
        catalog.idOfAbbrev("ISF"),
        catalog.idOfAbbrev("BRE"),
        catalog.idOfAbbrev("ORO"),
        catalog.idOfAbbrev("MSL"),
        catalog.idOfAbbrev("BMP"),
        catalog.idOfAbbrev("LMH"),
        catalog.idOfAbbrev("ITM"),
    };
    for (const char *name : {"sort", "scan"}) {
        const auto &benchmark = suite.byName(name);
        for (int r = 0; r < 3; ++r)
            collector.collectMlpx(benchmark, events, rng);
        collector.collectOcoe(benchmark,
                              {catalog.idOf("ICACHE.MISSES")}, rng);
    }
    return db;
}

/** One stored series as a TimeSeries, for the APIs that take copies. */
ts::TimeSeries
seriesOf(const store::StoreSnapshot &snap, store::RunId id,
         const std::string &event)
{
    const auto values = snap.values(id, event);
    return ts::TimeSeries(event, {values.begin(), values.end()},
                          snap.intervalMs(id));
}

} // namespace

int
main(int argc, char **argv)
{
    store::Database db = argc > 1 ? store::Database::load(argv[1])
                                  : recordFreshDatabase();

    // --- level-1 view: programs and their runs -------------------------
    std::printf("\nprograms in the database (microarch %s):\n",
                db.microarch().c_str());
    util::TablePrinter programs({"program", "runs", "mlpx", "ocoe",
                                 "mean exec (s)", "spread (s)"});
    for (const auto &summary : store::summarizeByProgram(db)) {
        programs.addRow(
            {summary.program, std::to_string(summary.runCount),
             std::to_string(summary.mlpxRuns),
             std::to_string(summary.ocoeRuns),
             util::formatDouble(summary.meanExecTimeMs / 1000.0, 2),
             util::formatDouble((summary.maxExecTimeMs -
                                 summary.minExecTimeMs) /
                                    1000.0,
                                2)});
    }
    programs.print();

    const auto program_names = db.programs();
    const std::string program = program_names.front();
    // Pinned for the reads below; the re-profiling at the end adds runs.
    const store::StoreSnapshot snap = db.snapshot();

    // --- cross-run event statistics -----------------------------------
    const auto &first_meta = snap.runInfo(snap.findRuns(program).front());
    const std::string event = first_meta.events.front();
    const auto event_summary =
        store::summarizeEventAcrossRuns(db, program, event);
    std::printf("\n%s / %s across %zu runs: mean %.1f, run-to-run "
                "stddev of means %.1f, range [%.1f, %.1f]\n",
                program.c_str(), event.c_str(), event_summary.runCount,
                event_summary.pooled.mean,
                event_summary.stddevOfRunMeans, event_summary.pooled.min,
                event_summary.pooled.max);

    // --- perf-style text dump ------------------------------------------
    const auto mlpx_runs = snap.findRuns(program, "mlpx");
    if (!mlpx_runs.empty()) {
        const store::RunId run = mlpx_runs.front();
        const auto &events = snap.runInfo(run).events;
        const std::string text = core::renderPerfIntervals(
            {seriesOf(snap, run, events[0]),
             seriesOf(snap, run, events[1])});
        std::printf("\nperf-style dump of run %lld (first 2 events, "
                    "first 6 lines):\n",
                    static_cast<long long>(mlpx_runs.front()));
        std::size_t shown = 0;
        std::size_t start = 0;
        while (shown < 7 && start < text.size()) {
            const std::size_t end = text.find('\n', start);
            std::printf("  %s\n",
                        text.substr(start, end - start).c_str());
            start = end + 1;
            ++shown;
        }
    }

    // --- nearest-run matching by DTW ------------------------------------
    const auto ocoe_runs = snap.findRuns(program, "ocoe");
    if (!mlpx_runs.empty() && !ocoe_runs.empty()) {
        const auto query =
            seriesOf(snap, mlpx_runs.front(), first_meta.events.front());
        std::vector<ts::TimeSeries> candidates;
        std::vector<store::RunId> candidate_ids;
        for (store::RunId id : snap.findRuns(program)) {
            if (id == mlpx_runs.front())
                continue;
            const auto &meta = snap.runInfo(id);
            if (std::find(meta.events.begin(), meta.events.end(),
                          first_meta.events.front()) ==
                meta.events.end())
                continue;
            candidates.push_back(
                seriesOf(snap, id, first_meta.events.front()));
            candidate_ids.push_back(id);
        }
        if (!candidates.empty()) {
            const auto nearest =
                ts::nearestNeighborDtw(query, candidates);
            std::printf("\nnearest run to run %lld by DTW on %s: run "
                        "%lld (distance %.3g; %zu of %zu full DTWs "
                        "run, rest pruned by LB_Keogh)\n",
                        static_cast<long long>(mlpx_runs.front()),
                        first_meta.events.front().c_str(),
                        static_cast<long long>(
                            candidate_ids[nearest.index]),
                        nearest.distance, nearest.dtwEvaluations,
                        candidates.size());
        }
    }

    // --- importance + advice --------------------------------------------
    if (workload::BenchmarkSuite::instance().has(program)) {
        std::printf("\nre-profiling %s for advice...\n", program.c_str());
        core::ProfileOptions options;
        options.mlpxRuns = 2;
        options.importance.minEvents = 146;
        core::CounterMiner miner(db, pmu::EventCatalog::instance(),
                                 options);
        util::Rng rng(32);
        const auto report = miner.profile(
            workload::BenchmarkSuite::instance().byName(program), rng);
        const auto recommendations =
            core::advise(report.topEvents,
                         pmu::EventCatalog::instance());
        util::TablePrinter advice({"event", "imp %", "layer", "advice"});
        for (const auto &rec : recommendations) {
            advice.addRow({rec.event,
                           util::formatDouble(rec.importance, 1),
                           rec.layer, rec.advice});
        }
        advice.print();
    }

    if (argc <= 1) {
        db.save("explorer.cmdb");
        std::printf("\nsaved the recorded database to explorer.cmdb — "
                    "rerun with it:  ./database_explorer "
                    "explorer.cmdb\n");
    }
    return 0;
}
