#include "pmu/trace.h"

#include "util/error.h"

namespace cminer::pmu {

TrueTrace::TrueTrace(std::size_t interval_count, std::size_t event_count,
                     double interval_ms)
    : intervalCount_(interval_count),
      intervalMs_(interval_ms),
      counts_(event_count, std::vector<double>(interval_count, 0.0)),
      ipc_(interval_count, 0.0)
{
    CM_ASSERT(interval_count > 0);
    CM_ASSERT(event_count > 0);
    CM_ASSERT(interval_ms > 0.0);
}

double
TrueTrace::count(EventId event, std::size_t interval) const
{
    CM_ASSERT(event < counts_.size());
    CM_ASSERT(interval < intervalCount_);
    return counts_[event][interval];
}

void
TrueTrace::setCount(EventId event, std::size_t interval, double value)
{
    CM_ASSERT(event < counts_.size());
    CM_ASSERT(interval < intervalCount_);
    CM_ASSERT(value >= 0.0);
    counts_[event][interval] = value;
}

const std::vector<double> &
TrueTrace::eventRow(EventId event) const
{
    CM_ASSERT(event < counts_.size());
    return counts_[event];
}

double
TrueTrace::ipc(std::size_t interval) const
{
    CM_ASSERT(interval < intervalCount_);
    return ipc_[interval];
}

void
TrueTrace::setIpc(std::size_t interval, double value)
{
    CM_ASSERT(interval < intervalCount_);
    CM_ASSERT(value >= 0.0);
    ipc_[interval] = value;
}

} // namespace cminer::pmu
