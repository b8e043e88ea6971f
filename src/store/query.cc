#include "store/query.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/error.h"

namespace cminer::store {

std::vector<ProgramSummary>
summarizeByProgram(const Database &db)
{
    std::map<std::string, std::vector<RunId>> by_program;
    for (const auto &program : db.programs())
        by_program[program] = db.findRuns(program);

    std::vector<ProgramSummary> out;
    out.reserve(by_program.size());
    for (const auto &[program, runs] : by_program) {
        ProgramSummary summary;
        summary.program = program;
        summary.runCount = runs.size();
        std::vector<double> times;
        times.reserve(runs.size());
        for (RunId id : runs) {
            const RunMetadata &meta = db.runInfo(id);
            summary.suite = meta.suite;
            times.push_back(meta.execTimeMs);
            if (meta.mode == "ocoe")
                ++summary.ocoeRuns;
            else if (meta.mode == "mlpx")
                ++summary.mlpxRuns;
        }
        if (!times.empty()) {
            summary.meanExecTimeMs = stats::mean(times);
            summary.stddevExecTimeMs = stats::stddev(times);
            summary.minExecTimeMs = stats::minValue(times);
            summary.maxExecTimeMs = stats::maxValue(times);
        }
        out.push_back(std::move(summary));
    }
    return out;
}

EventAcrossRuns
summarizeEventAcrossRuns(const Database &db, const std::string &program,
                         const std::string &event,
                         const std::string &mode)
{
    EventAcrossRuns result;
    result.event = event;

    std::vector<double> pooled;
    std::vector<double> run_means;
    for (RunId id : db.findRuns(program, mode)) {
        const RunMetadata &meta = db.runInfo(id);
        if (std::find(meta.events.begin(), meta.events.end(), event) ==
            meta.events.end())
            continue;
        const auto values = db.seriesValues(id, event);
        pooled.insert(pooled.end(), values.begin(), values.end());
        run_means.push_back(stats::mean(values));
        ++result.runCount;
    }
    if (result.runCount == 0) {
        util::fatal("query: no run of '" + program + "' measured event '" +
                    event + "'");
    }
    result.pooled = stats::summarize(pooled);
    result.meanOfRunMeans = stats::mean(run_means);
    result.stddevOfRunMeans = stats::stddev(run_means);
    return result;
}

} // namespace cminer::store
