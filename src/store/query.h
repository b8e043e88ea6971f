/**
 * @file
 * Aggregate queries over the performance database — the reporting layer
 * a fleet operator would use on the recorded "big performance data":
 * per-program run statistics and per-event value summaries across runs.
 */

#ifndef CMINER_STORE_QUERY_H
#define CMINER_STORE_QUERY_H

#include <string>
#include <vector>

#include "stats/descriptive.h"
#include "store/database.h"

namespace cminer::store {

/** Run statistics of one program. */
struct ProgramSummary
{
    std::string program;
    std::string suite;
    std::size_t runCount = 0;
    std::size_t ocoeRuns = 0;
    std::size_t mlpxRuns = 0;
    double meanExecTimeMs = 0.0;
    double stddevExecTimeMs = 0.0;
    double minExecTimeMs = 0.0;
    double maxExecTimeMs = 0.0;
};

/** Per-program summaries over the whole catalog, sorted by name. */
std::vector<ProgramSummary> summarizeByProgram(const Database &db);

/** Cross-run statistics of one event for one program. */
struct EventAcrossRuns
{
    std::string event;
    std::size_t runCount = 0;       ///< runs that measured the event
    cminer::stats::Summary pooled;  ///< stats over all pooled samples
    double meanOfRunMeans = 0.0;
    double stddevOfRunMeans = 0.0;  ///< run-to-run variability
};

/**
 * Pool one event's samples across all of a program's runs (optionally
 * restricted to a sampling mode) and summarize.
 *
 * @throws util::FatalError when no matching run measured the event
 */
EventAcrossRuns summarizeEventAcrossRuns(const Database &db,
                                         const std::string &program,
                                         const std::string &event,
                                         const std::string &mode = "");

} // namespace cminer::store

#endif // CMINER_STORE_QUERY_H
