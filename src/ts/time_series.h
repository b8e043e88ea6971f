/**
 * @file
 * The TimeSeries container at the heart of CounterMiner.
 *
 * Eq. 5 of the paper: TS_ei = {V_i1 ... V_in} — the sampled values of one
 * event during one run of one program. Lengths vary between runs of the
 * same program (OS nondeterminism), which is exactly why DTW rather than
 * pointwise distance is used downstream.
 */

#ifndef CMINER_TS_TIME_SERIES_H
#define CMINER_TS_TIME_SERIES_H

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace cminer::ts {

/**
 * A sampled event-value sequence with identifying metadata.
 *
 * Values are stored per sampling interval; the interval length in
 * milliseconds is carried so series can be re-anchored onto wall-clock
 * time when needed.
 */
class TimeSeries
{
  public:
    TimeSeries() = default;

    /**
     * @param event_name name of the sampled event ("ICACHE.MISSES")
     * @param values one value per sampling interval
     * @param interval_ms sampling interval length in milliseconds
     */
    TimeSeries(std::string event_name, std::vector<double> values,
               double interval_ms = 10.0);

    /** Name of the event this series samples. */
    const std::string &eventName() const { return eventName_; }

    /** All sampled values. */
    const std::vector<double> &values() const { return values_; }

    /** Mutable access for in-place cleaning. */
    std::vector<double> &mutableValues() { return values_; }

    /** Values as a span, for the stats routines. */
    std::span<const double> span() const { return values_; }

    /** Number of sampled intervals. */
    std::size_t size() const { return values_.size(); }

    /** True when no samples were collected. */
    bool empty() const { return values_.empty(); }

    /** Value at interval i (bounds-checked). */
    double at(std::size_t i) const;

    /** Set the value at interval i (bounds-checked). */
    void set(std::size_t i, double value);

    /** Append one sampled value. */
    void append(double value) { values_.push_back(value); }

    /** Sampling interval in milliseconds. */
    double intervalMs() const { return intervalMs_; }

    /** Total covered wall-clock time in milliseconds. */
    double durationMs() const
    {
        return intervalMs_ * static_cast<double>(values_.size());
    }

    /** Sum of all values (total event count over the run). */
    double total() const;

  private:
    std::string eventName_;
    std::vector<double> values_;
    double intervalMs_ = 10.0;
};

} // namespace cminer::ts

#endif // CMINER_TS_TIME_SERIES_H
