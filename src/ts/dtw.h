/**
 * @file
 * Dynamic time warping distance (Eq. 1 of the paper).
 *
 * Two runs of the same program produce event series of different lengths;
 * DTW aligns them before measuring distance. The paper computes
 *   dist_ref = DTW(S_ocoe1, S_ocoe2)    (Eq. 2)
 *   dist_mea = DTW(S_mlpx,  S_ocoe)     (Eq. 3)
 *   error    = |1 - dist_ref/dist_mea|  (Eq. 4)
 * Implementation: classic O(n*m) dynamic program over |a_i - b_j| with an
 * optional Sakoe-Chiba band for long series.
 */

#ifndef CMINER_TS_DTW_H
#define CMINER_TS_DTW_H

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "ts/time_series.h"

namespace cminer::ts {

/** Options for the DTW dynamic program. */
struct DtwOptions
{
    /**
     * Sakoe-Chiba band half-width as a fraction of max(n, m); 0 disables
     * the constraint. 0.1 is a common speed/accuracy tradeoff.
     */
    double bandFraction = 0.0;
};

/** DTW result: distance plus, optionally, the alignment path. */
struct DtwResult
{
    double distance = 0.0;
    /** Alignment path as (i, j) index pairs, first to last. */
    std::vector<std::pair<std::size_t, std::size_t>> path;
};

/**
 * Sakoe-Chiba band half-width, in columns, of an n x m DTW problem:
 * ceil(fraction * max(n, m)), widened to |n - m| + 1 so that a path
 * always exists; max(n, m) (unconstrained) when fraction <= 0. Row i
 * admits the columns within this distance of floor(i * m / n).
 * LB_Keogh envelopes size their radius from it, so a band-0 search gets
 * a whole-series envelope.
 */
std::size_t dtwBandHalfWidth(std::size_t n, std::size_t m,
                             double fraction);

/**
 * DTW distance between two value sequences.
 *
 * @param a first sequence (length n >= 1)
 * @param b second sequence (length m >= 1)
 * @param options band controls
 */
double dtwDistance(std::span<const double> a, std::span<const double> b,
                   const DtwOptions &options = {});

/** DTW distance between two TimeSeries. */
double dtwDistance(const TimeSeries &a, const TimeSeries &b,
                   const DtwOptions &options = {});

/** One (a, b) pair of a dtwDistances batch. */
struct DtwPair
{
    std::span<const double> a;
    std::span<const double> b;
};

/**
 * DTW distances of pairs that share one shape: every `a` has the same
 * length n >= 1 and every `b` the same length m >= 1. Full blocks of
 * eight pairs run in lockstep, two to an SSE2 register, so their
 * serial cell chains overlap, and the rest run one at a time (a build
 * without SSE2 runs blocks of four scalar lanes). out[k] equals
 * dtwDistance(pairs[k].a, pairs[k].b, options) bit for bit.
 *
 * @param out one slot per pair
 */
void dtwDistances(std::span<const DtwPair> pairs, const DtwOptions &options,
                  std::span<double> out);

/**
 * DTW with path recovery (needed for alignment inspection and tests).
 */
DtwResult dtwAlign(std::span<const double> a, std::span<const double> b,
                   const DtwOptions &options = {});

} // namespace cminer::ts

#endif // CMINER_TS_DTW_H
