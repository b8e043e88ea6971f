/**
 * @file
 * LB_Keogh lower bound for DTW (Keogh & Ratanamahatana 2005) and
 * z-normalization helpers.
 *
 * When scanning a database of runs for the nearest OCOE reference (e.g.
 * matching an MLPX run against a library of golden series), computing
 * full DTW against every candidate is wasteful. LB_Keogh gives a cheap
 * O(n) lower bound: candidates whose bound already exceeds the best
 * distance so far can be skipped without running the O(n*m) dynamic
 * program.
 */

#ifndef CMINER_TS_LB_KEOGH_H
#define CMINER_TS_LB_KEOGH_H

#include <cstddef>
#include <span>
#include <vector>

#include "ts/time_series.h"

namespace cminer::ts {

/**
 * Upper/lower envelope of a series under a Sakoe-Chiba band of the given
 * radius (in samples).
 */
struct Envelope
{
    std::vector<double> upper;
    std::vector<double> lower;
};

/**
 * Compute the band envelope of a query series.
 *
 * @param values query series
 * @param radius band half-width in samples (>= 0)
 */
Envelope computeEnvelope(std::span<const double> values,
                         std::size_t radius);

/**
 * LB_Keogh lower bound of DTW(query, candidate) for equal-length series.
 *
 * @param envelope precomputed envelope of the query
 * @param candidate candidate series; must match the envelope length
 * @return a value <= the true DTW distance under the same band
 */
double lbKeogh(const Envelope &envelope,
               std::span<const double> candidate);

/**
 * Nearest-neighbor search under DTW accelerated by LB_Keogh.
 *
 * Candidates are resampled to the query length first (DTW tolerates
 * small length differences; the bound requires equal lengths).
 *
 * @param query the series to match
 * @param candidates candidate series
 * @param band_fraction Sakoe-Chiba band as a fraction of the length
 * @return index of the nearest candidate and its DTW distance, plus the
 *         number of full DTW evaluations that were actually run
 */
struct NearestResult
{
    std::size_t index = 0;
    double distance = 0.0;
    std::size_t dtwEvaluations = 0;
};
NearestResult nearestNeighborDtw(
    const TimeSeries &query, const std::vector<TimeSeries> &candidates,
    double band_fraction = 0.1);

/** Z-normalize a series in place (zero mean, unit variance). */
void zNormalize(std::vector<double> &values);

} // namespace cminer::ts

#endif // CMINER_TS_LB_KEOGH_H
