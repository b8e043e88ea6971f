/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the pipeline's hot loops
 * (DESIGN.md §13).
 *
 * Every kernel exists at three dispatch levels — scalar, SSE2, AVX2 —
 * selected once per process by a CPUID probe and overridable with
 * `CMINER_SIMD=scalar|sse2|avx2` (or simd::setLevel from tests). The
 * scalar implementation is always compiled in and is the reference the
 * differential harness (tests/simd_kernel_test.cc) compares the wide
 * variants against.
 *
 * Exactness tiers (the contract every implementation must honor):
 *
 *  - **sequential-exact**: bit-identical to the naive element-order
 *    scalar loop the kernel replaced, so the hexfloat pipeline goldens
 *    survive. Kernels: windowMinMax, minMaxFinite, countLessEqual,
 *    lowerBoundBins, equiWidthBins. (min/max kernels are value-exact;
 *    the sign of a zero result is unspecified when +0.0 and -0.0 are
 *    both present.)
 *
 *  - **blocked-reduction**: reductions use the fixed four-lane block
 *    schedule below. The result is bit-identical *across dispatch
 *    levels* (the schedule is a function of the length only, never of
 *    the instruction set) but differs from a naive left-fold by
 *    rounding. Kernels: squaredDistance, lbKeoghSum.
 *    These are only wired into paths outside the golden pipeline.
 *    One carve-out for both tiers: when a reduction's result is NaN
 *    (a NaN input, or Inf - Inf), every level returns a quiet NaN but
 *    its payload and sign are unspecified — IEEE leaves the surviving
 *    payload of NaN + NaN to operand order, which compilers are free
 *    to commute per translation unit.
 *
 * The four-lane block schedule: lane l accumulates elements
 * x[4i + l] in index order; lanes combine as (l0 + l1) + (l2 + l3);
 * the n % 4 tail elements are then added sequentially. SSE2 models
 * lanes {0,1} and {2,3} as two 128-bit registers, AVX2 as one 256-bit
 * register, and the scalar fallback as four named accumulators — all
 * three perform the same additions in the same order.
 */

#ifndef CMINER_SIMD_SIMD_H
#define CMINER_SIMD_SIMD_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace cminer::simd {

/** Instruction-set tiers the kernel layer dispatches over. */
enum class Level : int
{
    Scalar = 0,
    Sse2 = 1,
    Avx2 = 2,
};

/** Stable lowercase name ("scalar", "sse2", "avx2"). */
const char *levelName(Level level);

/** Parse a level name as accepted by CMINER_SIMD; nullopt when unknown. */
std::optional<Level> parseLevelName(std::string_view name);

/**
 * Best level this binary can run on this machine: the CPUID probe
 * intersected with what the compiler could build. Never changes during
 * a process lifetime.
 */
Level detectedLevel();

/**
 * The level kernels currently dispatch to. Resolution order: the last
 * setLevel() call, else CMINER_SIMD (clamped to detectedLevel, with a
 * warning on unknown names), else detectedLevel().
 */
Level activeLevel();

/**
 * Force a dispatch level, clamped to detectedLevel(). Intended for the
 * differential tests and benchmarks; call only while no kernel is
 * concurrently executing (the pipeline reads the level per call).
 */
void setLevel(Level level);

/** Every level that can run here, ascending: Scalar .. detectedLevel(). */
std::vector<Level> availableLevels();

// --- blocked-reduction tier ----------------------------------------------

/**
 * Squared Euclidean distance sum((a-b)^2) under the four-lane block
 * schedule. Spans must be the same length.
 */
double squaredDistance(std::span<const double> a,
                       std::span<const double> b);

/**
 * LB_Keogh envelope deviation: sum over i of
 * (c[i] > upper[i] ? c[i]-upper[i] : c[i] < lower[i] ? lower[i]-c[i] : 0)
 * under the four-lane block schedule. Spans must be the same length.
 */
double lbKeoghSum(std::span<const double> lower,
                  std::span<const double> upper,
                  std::span<const double> candidate);

// --- sequential-exact tier -----------------------------------------------

/**
 * Min and max of a non-empty span of finite values (value-exact;
 * zero-sign unspecified). Used by the envelope computation.
 */
void windowMinMax(std::span<const double> values, double &min_out,
                  double &max_out);

/**
 * Min/max over the finite subset of a span, plus the finite count.
 * When no value is finite, outputs are 0.0/0.0/0. Value-exact;
 * zero-sign unspecified. Used by the cleaner's range pass.
 */
void minMaxFinite(std::span<const double> values, double &min_out,
                  double &max_out, std::size_t &finite_count);

/**
 * Number of elements <= threshold (NaN compares false, exactly like
 * the scalar loop). Drives the cleaner's Eq.-6 coverage scan.
 */
std::size_t countLessEqual(std::span<const double> values,
                           double threshold);

/**
 * Quantile-bin assignment: for each value, the index of the first edge
 * >= value (std::lower_bound semantics over the sorted `edges`),
 * clamped to edges.size() - 1. Exact (integer output). Requires
 * edges.size() in [1, 255].
 */
void lowerBoundBins(std::span<const double> values,
                    std::span<const double> edges,
                    std::span<std::uint8_t> bins_out);

/**
 * Equi-width bin assignment matching stats::Histogram::binIndex:
 * 0 when width <= 0 or value <= low; bin_count-1 when value >= high;
 * else min(floor((value - low) / width), bin_count - 1). Exact.
 */
void equiWidthBins(std::span<const double> values, double low,
                   double high, double width, std::size_t bin_count,
                   std::span<std::uint32_t> bins_out);

namespace detail {

/** Function-pointer table one dispatch level exports. */
struct KernelTable
{
    double (*squaredDistance)(std::span<const double>,
                              std::span<const double>);
    double (*lbKeoghSum)(std::span<const double>,
                         std::span<const double>,
                         std::span<const double>);
    void (*windowMinMax)(std::span<const double>, double &, double &);
    void (*minMaxFinite)(std::span<const double>, double &, double &,
                         std::size_t &);
    std::size_t (*countLessEqual)(std::span<const double>, double);
    void (*lowerBoundBins)(std::span<const double>,
                           std::span<const double>,
                           std::span<std::uint8_t>);
    void (*equiWidthBins)(std::span<const double>, double, double,
                          double, std::size_t, std::span<std::uint32_t>);
};

/** The scalar reference table (always available). */
const KernelTable &scalarTable();
/** The SSE2 table; null when this binary cannot run SSE2. */
const KernelTable *sse2Table();
/** The AVX2 table; null when this binary cannot run AVX2. */
const KernelTable *avx2Table();

} // namespace detail

} // namespace cminer::simd

#endif // CMINER_SIMD_SIMD_H
