/**
 * @file
 * The quantile-binning kernel behind FeatureBinner (DESIGN.md §13).
 *
 * Each hot loop in the program has one implementation, fixed at build
 * time. This is the one outside DTW's lockstep block (src/ts/dtw.cc)
 * with a vector body: a build with `__SSE2__` (the x86-64 baseline)
 * runs its compare sweep, any other build runs std::lower_bound. Both
 * give the same bins. There is no runtime dispatch, CPU probe or
 * environment override.
 */

#ifndef CMINER_KERNELS_SIMD_H
#define CMINER_KERNELS_SIMD_H

#include <cstdint>
#include <span>

namespace cminer::simd {

/** Instruction set a build's vector kernels use. */
enum class Level : int
{
    Scalar = 0,
    Sse2 = 1,
};

/** Stable lowercase name ("scalar", "sse2"). */
const char *levelName(Level level);

/**
 * The level fixed at compile time: Sse2 when the build has `__SSE2__`
 * (lowerBoundBins and DTW's lockstep block then use it), else Scalar.
 */
Level activeLevel();

/**
 * Quantile-bin assignment: for each value, the index of the first edge
 * >= value (std::lower_bound semantics over the sorted `edges`),
 * clamped to edges.size() - 1. Exact (integer output). Requires
 * edges.size() in [1, 255].
 */
void lowerBoundBins(std::span<const double> values,
                    std::span<const double> edges,
                    std::span<std::uint8_t> bins_out);

} // namespace cminer::simd

#endif // CMINER_KERNELS_SIMD_H
