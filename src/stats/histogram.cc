#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "stats/descriptive.h"
#include "util/error.h"

namespace cminer::stats {

Histogram::Histogram(std::span<const double> values)
{
    CM_ASSERT(!values.empty());
    const std::size_t bins = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(values.size()))));
    build(values, std::max<std::size_t>(1, bins));
}

Histogram::Histogram(std::span<const double> values, std::size_t bin_count)
{
    CM_ASSERT(!values.empty());
    CM_ASSERT(bin_count >= 1);
    build(values, bin_count);
}

void
Histogram::build(std::span<const double> values, std::size_t bin_count)
{
    low_ = minValue(values);
    high_ = maxValue(values);
    if (high_ <= low_) {
        // Constant sample: a single degenerate bin.
        counts_.assign(1, values.size());
        medians_.assign(1, low_);
        width_ = 0.0;
        globalMedian_ = low_;
        return;
    }
    width_ = (high_ - low_) / static_cast<double>(bin_count);
    counts_.assign(bin_count, 0);

    std::vector<std::vector<double>> buckets(bin_count);
    for (const double v : values) {
        const std::size_t bin = binIndex(v);
        ++counts_[bin];
        buckets[bin].push_back(v);
    }

    medians_.assign(bin_count, std::numeric_limits<double>::quiet_NaN());
    for (std::size_t b = 0; b < bin_count; ++b) {
        if (!buckets[b].empty())
            medians_[b] = median(buckets[b]);
    }
    globalMedian_ = median(values);
}

std::size_t
Histogram::binIndex(double value) const
{
    if (width_ <= 0.0 || value <= low_)
        return 0;
    if (value >= high_)
        return counts_.size() - 1;
    const std::size_t bin =
        static_cast<std::size_t>((value - low_) / width_);
    return std::min(bin, counts_.size() - 1);
}

std::size_t
Histogram::count(std::size_t bin) const
{
    CM_ASSERT(bin < counts_.size());
    return counts_[bin];
}

double
Histogram::intervalMedian(double value) const
{
    const std::size_t home = binIndex(value);
    if (!std::isnan(medians_[home]))
        return medians_[home];
    // Walk outward to the nearest populated bin.
    for (std::size_t delta = 1; delta < counts_.size(); ++delta) {
        if (home >= delta && !std::isnan(medians_[home - delta]))
            return medians_[home - delta];
        if (home + delta < counts_.size() &&
            !std::isnan(medians_[home + delta]))
            return medians_[home + delta];
    }
    return globalMedian_;
}

} // namespace cminer::stats
