/**
 * @file
 * Counter-signature distances for workload clustering (DESIGN.md §17).
 *
 * A run's *signature* is one event series (IPC by default) resampled to
 * a fixed length and optionally z-normalized, so runs of different
 * durations and absolute rates become comparable shapes. Distances
 * between signatures are DTW under a Sakoe-Chiba band (ts/dtw.h);
 * LB_Keogh (ts/lb_keogh.h) gives an admissible lower bound used to
 * prune full DTW evaluations wherever only the *nearest* medoid is
 * needed. The pairwise matrix feeding PAM needs every entry exactly,
 * so it is computed in full — but in parallel on the PR-1 pool with a
 * decomposition that depends only on the pair index, never the thread
 * count, keeping results bit-identical at 1/2/8 threads.
 */

#ifndef CMINER_MINING_DISTANCE_H
#define CMINER_MINING_DISTANCE_H

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "store/store_index.h"

namespace cminer::mining {

/** How run signatures are built and compared. */
struct SignatureOptions
{
    /** Event series the signature is built from. */
    std::string event = "IPC";
    /** Fixed signature length every series is resampled to (>= 2). */
    std::size_t length = 128;
    /** Z-normalize signatures (shape-only comparison). */
    bool zNormalize = true;
    /**
     * Sakoe-Chiba band half-width as a fraction of the signature
     * length, for both DTW and the LB_Keogh envelope radius; 0 means
     * unconstrained DTW.
     */
    double bandFraction = 0.1;
};

/**
 * Build a signature from raw sampled values.
 *
 * @param values one event's samples (non-empty)
 * @param options resample length / normalization policy
 */
std::vector<double> makeSignature(std::span<const double> values,
                                  const SignatureOptions &options);

/**
 * Signature of one stored run, read zero-copy from a snapshot span.
 * Fatal when the run lacks the configured event.
 */
std::vector<double> runSignature(const cminer::store::StoreSnapshot &snap,
                                 cminer::store::RunId id,
                                 const SignatureOptions &options);

/**
 * Exact DTW distance between two equal-length signatures under the
 * options' band.
 */
double signatureDistance(std::span<const double> a,
                         std::span<const double> b,
                         const SignatureOptions &options);

/**
 * Full pairwise DTW distance matrix over signatures (row-major n*n,
 * symmetric, zero diagonal). Every signature must have the same
 * length. Pairs are computed in parallel on the global pool; each
 * (i, j) pair writes only its own two mirror slots, so the result is
 * bit-identical for any thread count.
 */
std::vector<double>
dtwDistanceMatrix(const std::vector<std::vector<double>> &signatures,
                  const SignatureOptions &options);

/** Nearest-medoid result with pruning accounting. */
struct NearestMedoid
{
    /** Index into the medoid list. */
    std::size_t index = 0;
    /** Exact DTW distance to that medoid. */
    double distance = 0.0;
    /** Full DTW evaluations actually run (<= medoid count). */
    std::size_t dtwEvaluations = 0;
};

/**
 * Find the nearest medoid to a signature under DTW, pruning candidates
 * with LB_Keogh. The envelope radius is ts::dtwBandHalfWidth + 1, at
 * least the DTW band (a whole-series envelope at band 0), so the bound
 * is admissible: the returned medoid is identical to brute force.
 *
 * @param signature query signature (options.length samples)
 * @param medoids views of the candidate medoid signatures (same length)
 */
NearestMedoid
nearestMedoid(std::span<const double> signature,
              std::span<const std::span<const double>> medoids,
              const SignatureOptions &options);

} // namespace cminer::mining

#endif // CMINER_MINING_DISTANCE_H
