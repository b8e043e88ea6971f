/**
 * @file
 * Descriptive statistics over double sequences.
 *
 * These are the primitives the data cleaner (Eq. 6: mean + n*std
 * thresholds) and the interaction ranker (residual variance, Eq. 12) are
 * built on.
 */

#ifndef CMINER_STATS_DESCRIPTIVE_H
#define CMINER_STATS_DESCRIPTIVE_H

#include <cstddef>
#include <span>
#include <vector>

namespace cminer::stats {

/** Arithmetic mean; 0 for an empty span. */
double mean(std::span<const double> values);

/**
 * Variance.
 *
 * @param values the sample
 * @param sample when true, uses the n-1 (unbiased) denominator
 */
double variance(std::span<const double> values, bool sample = true);

/** Standard deviation (sqrt of variance). */
double stddev(std::span<const double> values, bool sample = true);

/** Smallest value; requires a non-empty span. */
double minValue(std::span<const double> values);

/** Largest value; requires a non-empty span. */
double maxValue(std::span<const double> values);

/** Median (average of middle two for even counts). */
double median(std::span<const double> values);

/**
 * Linear-interpolated quantile (type-7, same as numpy default).
 *
 * @param values the sample (need not be sorted)
 * @param q quantile in [0, 1]
 */
double quantile(std::span<const double> values, double q);

/** Sample skewness (adjusted Fisher-Pearson). 0 for n < 3. */
double skewness(std::span<const double> values);

/** Pearson correlation of two equally sized samples. */
double pearson(std::span<const double> x, std::span<const double> y);

/** One-line summary of a sample, used in reports and the store. */
struct Summary
{
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    double median = 0.0;
    double skewness = 0.0;
};

/** Compute a full Summary in one pass over a copy. */
Summary summarize(std::span<const double> values);

/**
 * Fraction of values that are <= threshold.
 *
 * Used for Table I: the share of event samples inside the outlier
 * threshold for a given n.
 */
double fractionWithin(std::span<const double> values, double threshold);

} // namespace cminer::stats

#endif // CMINER_STATS_DESCRIPTIVE_H
