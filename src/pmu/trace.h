/**
 * @file
 * The ground-truth trace interface between the workload model and the PMU.
 *
 * A workload run produces a TrueTrace: for every catalog event, the true
 * number of occurrences in each sampling interval, plus the true IPC per
 * interval. The PMU sampler then *observes* this trace either exactly
 * (OCOE) or through multiplexed counters (MLPX). Keeping the truth
 * separate from the observation is what lets the benches quantify
 * measurement error the way the paper does.
 */

#ifndef CMINER_PMU_TRACE_H
#define CMINER_PMU_TRACE_H

#include <cstddef>
#include <string>
#include <vector>

#include "pmu/event.h"

namespace cminer::pmu {

/**
 * Ground-truth event activity of one program run.
 *
 * counts[e][t] is the true count of catalog event e during interval t.
 * Interval counts are non-negative; lengths are uniform across events
 * within a run but differ *between* runs (OS nondeterminism).
 */
class TrueTrace
{
  public:
    TrueTrace() = default;

    /**
     * @param interval_count number of sampling intervals in the run
     * @param event_count number of catalog events (usually 229)
     * @param interval_ms sampling interval in milliseconds
     */
    TrueTrace(std::size_t interval_count, std::size_t event_count,
              double interval_ms);

    /** Number of sampling intervals. */
    std::size_t intervalCount() const { return intervalCount_; }

    /** Number of events carried (catalog size). */
    std::size_t eventCount() const { return counts_.size(); }

    /** Sampling interval in milliseconds. */
    double intervalMs() const { return intervalMs_; }

    /** Run duration in milliseconds. */
    double durationMs() const
    {
        return intervalMs_ * static_cast<double>(intervalCount_);
    }

    /** True count of event e in interval t. */
    double count(EventId event, std::size_t interval) const;

    /** Set the true count of event e in interval t. */
    void setCount(EventId event, std::size_t interval, double value);

    /** Whole row for one event. */
    const std::vector<double> &eventRow(EventId event) const;

    /** True IPC in interval t. */
    double ipc(std::size_t interval) const;

    /** Set true IPC in interval t. */
    void setIpc(std::size_t interval, double value);

    /** Whole IPC row. */
    const std::vector<double> &ipcRow() const { return ipc_; }

  private:
    std::size_t intervalCount_ = 0;
    double intervalMs_ = 10.0;
    std::vector<std::vector<double>> counts_; ///< [event][interval]
    std::vector<double> ipc_;                 ///< [interval]
};

} // namespace cminer::pmu

#endif // CMINER_PMU_TRACE_H
