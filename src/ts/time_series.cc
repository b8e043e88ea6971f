#include "ts/time_series.h"

#include "util/error.h"

namespace cminer::ts {

TimeSeries::TimeSeries(std::string event_name, std::vector<double> values,
                       double interval_ms)
    : eventName_(std::move(event_name)),
      values_(std::move(values)),
      intervalMs_(interval_ms)
{
    CM_ASSERT(intervalMs_ > 0.0);
}

double
TimeSeries::at(std::size_t i) const
{
    CM_ASSERT(i < values_.size());
    return values_[i];
}

void
TimeSeries::set(std::size_t i, double value)
{
    CM_ASSERT(i < values_.size());
    values_[i] = value;
}

double
TimeSeries::total() const
{
    double sum = 0.0;
    for (double v : values_)
        sum += v;
    return sum;
}

} // namespace cminer::ts
