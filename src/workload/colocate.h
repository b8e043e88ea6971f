/**
 * @file
 * Co-located workload composition (paper Section V-E).
 *
 * Two benchmarks share a node: their event activity adds, and cache
 * contention (a) inflates the L2 events and (b) depresses the combined
 * IPC in a way correlated with that inflation — which is why L2 events
 * climb into the top-10 importance list for dissimilar pairs like
 * DataCaching + GraphAnalytics while same-program pairs barely move.
 */

#ifndef CMINER_WORKLOAD_COLOCATE_H
#define CMINER_WORKLOAD_COLOCATE_H

#include "pmu/trace.h"
#include "util/rng.h"
#include "workload/benchmark.h"

namespace cminer::workload {

/** Knobs of the interference model. */
struct ColocationOptions
{
    /**
     * Contention level in [0, 1]. Negative means "auto": 0.15 for two
     * instances of the same program (similar phase-aligned footprints),
     * 0.75 for different programs.
     */
    double contention = -1.0;
};

/**
 * Compose the shared-node trace of two co-running benchmarks.
 *
 * The result is truncated to the shorter of the two runs; counters and
 * events are shared resources, so per-benchmark attribution is not
 * possible (as the paper notes).
 *
 * @param a first benchmark
 * @param b second benchmark (may be the same object as `a`)
 * @param rng randomness for both runs and the interference process
 * @param options interference model knobs
 */
cminer::pmu::TrueTrace
composeColocated(const SyntheticBenchmark &a, const SyntheticBenchmark &b,
                 cminer::util::Rng &rng,
                 const ColocationOptions &options = {});

} // namespace cminer::workload

#endif // CMINER_WORKLOAD_COLOCATE_H
