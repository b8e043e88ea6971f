/**
 * @file
 * The data cleaner (paper Section III-B): repairs MLPX damage *after*
 * sampling — complementary to scheduling-time approaches.
 *
 * Outliers: values above `mean + n*std` (Eq. 6), with n chosen as the
 * smallest candidate keeping >= 99% of the data inside (Table I; the
 * paper lands on n = 5). A detected outlier is replaced by the median of
 * the value interval it falls into, with interval length Eq. 7 — computed
 * over the non-outlying values so the replacement is a plausible level.
 *
 * Missing values: MLPX reports zero for intervals it never observed. A
 * zero is kept only when the series could genuinely be zero there (min
 * == 0 and max < 0.01); every other zero is treated as missing and
 * imputed by temporal KNN regression with k = 5.
 *
 * Damaged input: NaN/Inf samples (tool noise, fault injection) and
 * negative counts are treated as missing values and routed through the
 * same KNN imputation — and they are excluded from every mean/std/
 * histogram computation so one poisoned sample cannot corrupt the
 * outlier thresholds for the rest of the series.
 */

#ifndef CMINER_CORE_CLEANER_H
#define CMINER_CORE_CLEANER_H

#include <span>
#include <string>
#include <vector>

#include "ts/time_series.h"

namespace cminer::core {

/** Cleaning policy knobs (defaults follow the paper). */
struct CleanerOptions
{
    /** Candidate n values for Eq. 6, tried in order. */
    std::vector<double> thresholdCandidates = {3.0, 4.0, 5.0, 6.0, 7.0,
                                               8.0};
    /** KNN neighborhood for missing-value imputation. */
    std::size_t knnK = 5;
    /** Stage toggles (for the ablation benches). */
    bool replaceOutliers = true;
    bool fillMissing = true;
    /** Run missing-value filling before outlier replacement. */
    bool missingFirst = false;
};

/** What the cleaner did to one series. */
struct SeriesCleanReport
{
    std::string event;
    std::size_t outliersReplaced = 0;
    std::size_t missingFilled = 0;
    /** NaN/Inf inputs routed through the missing-value imputation. */
    std::size_t nonFiniteRepaired = 0;
    std::size_t trueZerosKept = 0;
    double thresholdN = 0.0;   ///< the n actually used in Eq. 6
    double threshold = 0.0;    ///< mean + n*std
    std::string distribution;  ///< best-fit family ("normal", "gev", ...)
};

/**
 * Cleans event time series in place.
 */
class DataCleaner
{
  public:
    explicit DataCleaner(CleanerOptions options = {});

    /** Options in effect. */
    const CleanerOptions &options() const { return options_; }

    /** Clean one series in place and report what changed. */
    SeriesCleanReport clean(cminer::ts::TimeSeries &series) const;

    /**
     * Clean one event's samples in place, wherever they live — a
     * TimeSeries buffer or a dataset column segment. The span-based
     * core the other entry points delegate to.
     */
    SeriesCleanReport cleanValues(const std::string &event,
                                  std::span<double> values) const;

    /** Clean a batch of series in place. */
    std::vector<SeriesCleanReport>
    cleanAll(std::vector<cminer::ts::TimeSeries> &series) const;

    /**
     * The smallest candidate n whose threshold keeps 99% of the data
     * inside (Table I); the largest candidate when none does.
     */
    double chooseThresholdN(std::span<const double> values) const;

  private:
    std::size_t replaceOutliers(std::span<double> values,
                                SeriesCleanReport &report) const;
    void fillMissing(std::span<double> values,
                     SeriesCleanReport &report) const;

    CleanerOptions options_;
};

} // namespace cminer::core

#endif // CMINER_CORE_CLEANER_H
