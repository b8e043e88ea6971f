/**
 * @file
 * Rank statistics over double sequences.
 */

#ifndef CMINER_STATS_SERIES_STATS_H
#define CMINER_STATS_SERIES_STATS_H

#include <span>

namespace cminer::stats {

/**
 * Spearman rank correlation of two equally sized samples (Pearson
 * correlation of the ranks; ties get average ranks). Used to compare
 * importance rankings from independent profilings.
 */
double spearman(std::span<const double> x, std::span<const double> y);

} // namespace cminer::stats

#endif // CMINER_STATS_SERIES_STATS_H
