/**
 * @file
 * Deterministic k-medoids (PAM) over a precomputed distance matrix
 * (DESIGN.md §17).
 *
 * Kadiyala et al. (PAPERS.md) cluster runs by counter-series similarity
 * before modeling; we do the same over the DTW matrix from
 * mining/distance.h. PAM is chosen over k-means because medoids are
 * actual runs (a family is represented by a real signature, which the
 * anomaly scorer compares against) and because it needs only the
 * distance matrix, not a vector-space mean of warped series.
 *
 * Determinism contract: the medoid initialization is drawn from the
 * caller's Rng stream (never a global), every argmin breaks ties by the
 * lowest index, and the parallel swap evaluation writes per-candidate
 * slots reduced serially in candidate order — so the clustering is
 * bit-identical for any thread count and reproducible from the seed.
 */

#ifndef CMINER_MINING_KMEDOIDS_H
#define CMINER_MINING_KMEDOIDS_H

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace cminer::mining {

/** PAM policy knobs. */
struct KMedoidsOptions
{
    /** Number of clusters (clamped to the item count). */
    std::size_t k = 2;
};

/** Outcome of a PAM run. */
struct KMedoidsResult
{
    /** Item index of each cluster's medoid, ascending. */
    std::vector<std::size_t> medoids;
    /** Cluster slot (index into medoids) per item. */
    std::vector<std::size_t> assignment;
    /** Sum over items of the distance to their medoid. */
    double totalCost = 0.0;
    /** SWAP iterations performed. */
    std::size_t iterations = 0;
};

/**
 * Cluster `n` items into k medoids by PAM: seeded random init from
 * `rng`, then greedy best-improvement swaps until no swap lowers the
 * total cost (or after 64 swaps, each of which strictly lowered it).
 *
 * @param matrix row-major n*n symmetric distance matrix with a zero
 *        diagonal (mining::dtwDistanceMatrix output)
 * @param n item count (matrix.size() == n*n)
 * @param options cluster count
 * @param rng the run's own randomness stream (medoid init)
 */
KMedoidsResult kMedoids(const std::vector<double> &matrix, std::size_t n,
                        const KMedoidsOptions &options,
                        cminer::util::Rng &rng);

} // namespace cminer::mining

#endif // CMINER_MINING_KMEDOIDS_H
