#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace cminer::stats {

double
mean(std::span<const double> values)
{
    if (values.empty())
        return 0.0;
    double total = 0.0;
    for (double v : values)
        total += v;
    return total / static_cast<double>(values.size());
}

double
variance(std::span<const double> values, bool sample)
{
    const std::size_t n = values.size();
    if (n < 2)
        return 0.0;
    const double mu = mean(values);
    double accum = 0.0;
    for (double v : values) {
        const double d = v - mu;
        accum += d * d;
    }
    const double denom =
        sample ? static_cast<double>(n - 1) : static_cast<double>(n);
    return accum / denom;
}

double
stddev(std::span<const double> values, bool sample)
{
    return std::sqrt(variance(values, sample));
}

double
minValue(std::span<const double> values)
{
    CM_ASSERT(!values.empty());
    return *std::min_element(values.begin(), values.end());
}

double
maxValue(std::span<const double> values)
{
    CM_ASSERT(!values.empty());
    return *std::max_element(values.begin(), values.end());
}

double
median(std::span<const double> values)
{
    return quantile(values, 0.5);
}

double
quantile(std::span<const double> values, double q)
{
    CM_ASSERT(!values.empty());
    CM_ASSERT(q >= 0.0 && q <= 1.0);
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    const double position = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(position);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = position - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
skewness(std::span<const double> values)
{
    const std::size_t n = values.size();
    if (n < 3)
        return 0.0;
    const double mu = mean(values);
    double m2 = 0.0;
    double m3 = 0.0;
    for (double v : values) {
        const double d = v - mu;
        m2 += d * d;
        m3 += d * d * d;
    }
    m2 /= static_cast<double>(n);
    m3 /= static_cast<double>(n);
    if (m2 <= 0.0)
        return 0.0;
    const double g1 = m3 / std::pow(m2, 1.5);
    const double dn = static_cast<double>(n);
    return g1 * std::sqrt(dn * (dn - 1.0)) / (dn - 2.0);
}

double
pearson(std::span<const double> x, std::span<const double> y)
{
    CM_ASSERT(x.size() == y.size());
    const std::size_t n = x.size();
    if (n < 2)
        return 0.0;
    const double mx = mean(x);
    const double my = mean(y);
    double sxy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = x[i] - mx;
        const double dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

Summary
summarize(std::span<const double> values)
{
    Summary s;
    s.count = values.size();
    if (values.empty())
        return s;
    s.mean = mean(values);
    s.stddev = stddev(values);
    s.min = minValue(values);
    s.max = maxValue(values);
    s.median = median(values);
    s.skewness = skewness(values);
    return s;
}

double
fractionWithin(std::span<const double> values, double threshold)
{
    if (values.empty())
        return 1.0;
    // NaN compares false, so a NaN value or threshold counts as outside.
    std::size_t inside = 0;
    for (const double v : values) {
        if (v <= threshold)
            ++inside;
    }
    return static_cast<double>(inside) / static_cast<double>(values.size());
}

} // namespace cminer::stats
