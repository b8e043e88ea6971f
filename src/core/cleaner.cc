#include "core/cleaner.h"

#include <algorithm>
#include <cmath>

#include "ml/knn.h"
#include "stats/anderson_darling.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace cminer::core {

using cminer::ts::TimeSeries;

DataCleaner::DataCleaner(CleanerOptions options)
    : options_(std::move(options))
{
    CM_ASSERT(!options_.thresholdCandidates.empty());
    CM_ASSERT(options_.knnK >= 1);
}

namespace {

/** Required fraction of data inside the outlier threshold. */
constexpr double kCoverageTarget = 0.99;
/** A zero is a true zero only when the series max stays below this. */
constexpr double kTrueZeroMax = 0.01;

/** The finite subset of a series — the only samples statistics trust. */
std::vector<double>
finiteValues(std::span<const double> values)
{
    std::vector<double> finite;
    finite.reserve(values.size());
    for (double v : values) {
        if (std::isfinite(v))
            finite.push_back(v);
    }
    return finite;
}

} // namespace

double
DataCleaner::chooseThresholdN(std::span<const double> values) const
{
    // NaN/Inf samples are missing data, not evidence: they must not
    // poison the mean/std the Eq.-6 threshold is built from.
    const std::vector<double> finite = finiteValues(values);
    if (finite.empty())
        return options_.thresholdCandidates.back();
    const double mu = stats::mean(finite);
    const double sigma = stats::stddev(finite);
    for (double n : options_.thresholdCandidates) {
        const double threshold = mu + n * sigma;
        if (stats::fractionWithin(finite, threshold) >= kCoverageTarget)
            return n;
    }
    return options_.thresholdCandidates.back();
}

std::size_t
DataCleaner::replaceOutliers(std::span<double> values,
                             SeriesCleanReport &report) const
{
    const std::vector<double> finite = finiteValues(values);
    if (finite.size() < 8)
        return 0;
    const double n = chooseThresholdN(finite);
    const double mu = stats::mean(finite);
    const double sigma = stats::stddev(finite);
    const double threshold = mu + n * sigma;
    report.thresholdN = n;
    report.threshold = threshold;
    if (sigma <= 0.0)
        return 0;

    // Replacement levels come from the non-outlying values only; the
    // histogram uses the paper's sqrt bin rule (Eq. 7).
    std::vector<double> inliers;
    inliers.reserve(finite.size());
    for (double v : finite) {
        if (v <= threshold)
            inliers.push_back(v);
    }
    if (inliers.empty())
        return 0;
    const stats::Histogram histogram(inliers);

    std::size_t replaced = 0;
    for (double &v : values) {
        // Non-finite samples are left for the missing-value stage.
        if (std::isfinite(v) && v > threshold) {
            v = histogram.intervalMedian(v);
            ++replaced;
        }
    }
    return replaced;
}

void
DataCleaner::fillMissing(std::span<double> values,
                         SeriesCleanReport &report) const
{
    // Candidate missing values: zeros (MLPX "<not counted>" samples),
    // anything negative (impossible for counts; treated as corrupt),
    // and NaN/Inf samples (tool damage). The true-zero rule ranges over
    // the finite samples only, so one Inf cannot veto it.
    std::vector<std::size_t> missing;
    std::size_t zero_count = 0;
    std::size_t non_finite = 0;
    double max_value = 0.0;
    double min_value = 0.0;
    bool any_finite = false;
    for (const double v : values) {
        if (!std::isfinite(v))
            continue;
        min_value = any_finite ? std::min(min_value, v) : v;
        max_value = any_finite ? std::max(max_value, v) : v;
        any_finite = true;
    }
    max_value = std::max(max_value, 0.0);

    // The paper's true-zero rule: when the series minimum is zero and
    // the maximum never exceeds 0.01, the zeros are genuine.
    const bool zeros_are_real = min_value <= 0.0 && max_value < kTrueZeroMax;

    for (std::size_t i = 0; i < values.size(); ++i) {
        if (!std::isfinite(values[i])) {
            ++non_finite;
            missing.push_back(i);
        } else if (values[i] < 0.0) {
            missing.push_back(i);
        } else if (values[i] == 0.0) {
            ++zero_count;
            if (!zeros_are_real)
                missing.push_back(i);
        }
    }
    // Genuine zeros are kept, but damaged samples are still repaired.
    if (zeros_are_real)
        report.trueZerosKept = zero_count;
    report.nonFiniteRepaired = non_finite;
    report.missingFilled =
        ml::knnImputeSeries(values, missing, options_.knnK);
}

SeriesCleanReport
DataCleaner::clean(TimeSeries &series) const
{
    return cleanValues(series.eventName(), series.mutableValues());
}

SeriesCleanReport
DataCleaner::cleanValues(const std::string &event,
                         std::span<double> values) const
{
    SeriesCleanReport report;
    report.event = event;
    if (values.empty())
        return report;

    // Record the distribution family before touching the data. The fit
    // sorts its input, so NaN samples must be screened out first.
    const std::vector<double> finite = finiteValues(values);
    if (!finite.empty())
        report.distribution =
            stats::fitBestDistribution(finite).bestFamily;

    if (options_.missingFirst) {
        if (options_.fillMissing)
            fillMissing(values, report);
        if (options_.replaceOutliers)
            report.outliersReplaced = replaceOutliers(values, report);
    } else {
        if (options_.replaceOutliers)
            report.outliersReplaced = replaceOutliers(values, report);
        if (options_.fillMissing)
            fillMissing(values, report);
    }

    // Counters mirror the SeriesCleanReport fields one-to-one, so the
    // exported metrics reconcile exactly with the summed reports (and
    // stay race-free when cleanAll fans series out across the pool).
    cminer::util::count("cleaner.series_cleaned");
    cminer::util::count("cleaner.outliers_replaced",
                        report.outliersReplaced);
    cminer::util::count("cleaner.missing_filled", report.missingFilled);
    cminer::util::count("cleaner.non_finite_repaired",
                        report.nonFiniteRepaired);
    cminer::util::count("cleaner.true_zeros_kept",
                        report.trueZerosKept);
    return report;
}

std::vector<SeriesCleanReport>
DataCleaner::cleanAll(std::vector<TimeSeries> &series) const
{
    // Series are cleaned independently (clean touches only its own
    // series and report slot), so the batch fans out across the pool.
    std::vector<SeriesCleanReport> reports(series.size());
    cminer::util::parallelFor(
        0, series.size(), 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s)
                reports[s] = clean(series[s]);
        });
    return reports;
}

} // namespace cminer::core
