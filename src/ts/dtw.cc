#include "ts/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/error.h"

namespace cminer::ts {

namespace {

constexpr double infinity = std::numeric_limits<double>::infinity();

/**
 * Lanes per lockstep block (DESIGN.md §13 has the lane measurements).
 * dtwDistances runs full blocks of kDtwLanes BlockLanes, then single
 * pairs.
 */
constexpr std::size_t kDtwLanes = 4;

/**
 * A lane of the recurrence holding one pair: a plain double. Every
 * operation is the classic scalar one, so dtwDistance is its
 * one-lane instance.
 */
struct ScalarLane
{
    using Value = double;
    static constexpr std::size_t pairs = 1;
    static double splat(double x) { return x; }
    static double load(const double *p) { return *p; }
    static void store(double *p, double v) { *p = v; }
    static double min(double a, double b) { return std::min(a, b); }
    static double absDiff(double a, double b) { return std::abs(a - b); }
    static double add(double a, double b) { return a + b; }
};

#if defined(__SSE2__)
/**
 * A lane holding two pairs, one in each half of an SSE2 register
 * (baseline x86-64, so no dispatch). Each half gets exactly its pair's
 * scalar operation and never reads the other half: _mm_min_pd(b, a) is
 * (b < a) ? b : a, which is std::min(a, b); masking off the sign bit is
 * std::abs (an AND keeps the mask register intact, where ANDNPD would
 * overwrite it and cost a copy per lane); subtraction and addition are
 * the IEEE ones. Loads and stores are aligned: std::allocator blocks
 * are, and every lane starts an even number of doubles into one.
 */
struct Sse2Lane
{
    static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= 16);
    using Value = __m128d;
    static constexpr std::size_t pairs = 2;
    static __m128d splat(double x) { return _mm_set1_pd(x); }
    static __m128d load(const double *p) { return _mm_load_pd(p); }
    static void store(double *p, __m128d v) { _mm_store_pd(p, v); }
    static __m128d min(__m128d a, __m128d b) { return _mm_min_pd(b, a); }
    static __m128d absDiff(__m128d a, __m128d b)
    {
        const __m128d magnitude =
            _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffff));
        return _mm_and_pd(_mm_sub_pd(a, b), magnitude);
    }
    static __m128d add(__m128d a, __m128d b) { return _mm_add_pd(a, b); }
};
#endif

/** The lane of full blocks: an SSE2 register where the build has one. */
#if defined(__SSE2__)
using BlockLane = Sse2Lane;
#else
using BlockLane = ScalarLane;
#endif

/** Columns [first, second) of row i that lie inside the band. */
std::pair<std::size_t, std::size_t>
bandColumns(std::size_t i, std::size_t n, std::size_t m, std::size_t band)
{
    const double center =
        static_cast<double>(i) * static_cast<double>(m) /
        static_cast<double>(n);
    const std::size_t j_lo = center > static_cast<double>(band)
        ? static_cast<std::size_t>(center) - band : 0;
    const std::size_t j_hi =
        std::min(m, static_cast<std::size_t>(center) + band + 1);
    return {j_lo, j_hi};
}

/**
 * DTW of one block of block = Width * Lane::pairs pairs of one n x m
 * shape in lockstep, into out[0, block).
 *
 * Each pair owns two DP rows of m + 1 slots. The rows of the block's
 * pairs are interleaved in `scratch`, so slot s of pair p sits at
 * s * block + p, and lane l holds the Lane::pairs pairs from
 * l * Lane::pairs on.
 * Slot j + 1 holds column j, and slot 0 (column -1) is never written,
 * so it stays +inf. Outside its band a row must read as +inf. Row i
 * overwrites the half that holds row i - 2, and band edges never move
 * left, so the only stale cells are those of row i - 2 left of row i's
 * band. The band and that reset are shared by every pair. Register
 * lanes read their series from an interleaved copy laid out the same
 * way; scalar lanes read them in place (a copy made four scalar lanes
 * 10-15% slower). Pairs never read each other's slots, so each
 * computes exactly its own distance.
 */
template <typename Lane, std::size_t Width>
void
dtwLanes(const DtwPair *pairs, std::size_t n, std::size_t m,
         std::size_t band, std::vector<double> &scratch, double *out)
{
    constexpr std::size_t block = Width * Lane::pairs;
    // Sample t of lane l's series sits at a[l] + t * step.
    constexpr std::size_t step = Lane::pairs == 1 ? 1 : block;
    const std::size_t stride = (m + 1) * block;
    const std::size_t series = step == 1 ? 0 : (n + m) * block;
    scratch.assign(2 * stride + series, infinity);
    double *prev = scratch.data() + stride;
    double *curr = scratch.data();
    const double *a[Width] = {};
    const double *b[Width] = {};
    if constexpr (step == 1) {
#pragma GCC unroll 8
        for (std::size_t l = 0; l < Width; ++l) {
            a[l] = pairs[l].a.data();
            b[l] = pairs[l].b.data();
        }
    } else {
        double *copy = scratch.data() + 2 * stride;
        for (std::size_t p = 0; p < block; ++p) {
            for (std::size_t i = 0; i < n; ++i)
                copy[i * block + p] = pairs[p].a[i];
            for (std::size_t j = 0; j < m; ++j)
                copy[(n + j) * block + p] = pairs[p].b[j];
        }
#pragma GCC unroll 8
        for (std::size_t l = 0; l < Width; ++l) {
            a[l] = copy + l * Lane::pairs;
            b[l] = copy + n * block + l * Lane::pairs;
        }
    }
    std::size_t lo_back1 = 0; // first band column of row i - 1
    std::size_t lo_back2 = 0; // ... and of row i - 2

    for (std::size_t i = 0; i < n; ++i) {
        const auto [j_lo, j_hi] = bandColumns(i, n, m, band);
        std::fill(curr + (lo_back2 + 1) * block,
                  curr + (j_lo + 1) * block, infinity);
        // D(i, j) = |a_i - b_j| + min(D(i-1, j), D(i-1, j-1), D(i, j-1)).
        // The left neighbour of the band is +inf, except that cell
        // (0, 0) is seeded with 0. min is exact and DP values are never
        // NaN or -0, so the grouping of the three-way min keeps every
        // bit of the classic recurrence. The lane loops must unroll
        // fully: only then do left and a_i stay in registers. D(i-1,
        // j-1) is read back from the row rather than carried from the
        // previous column; carrying it made GCC 12 put two register
        // moves on the serial left chain.
        typename Lane::Value a_i[Width] = {};
        typename Lane::Value left[Width] = {};
#pragma GCC unroll 8
        for (std::size_t l = 0; l < Width; ++l) {
            a_i[l] = Lane::load(a[l] + i * step);
            left[l] = Lane::splat(i == 0 ? 0.0 : infinity);
        }
        for (std::size_t j = j_lo; j < j_hi; ++j) {
            const double *diag = prev + j * block;
            const double *above = diag + block;
            double *cell = curr + (j + 1) * block;
#pragma GCC unroll 8
            for (std::size_t l = 0; l < Width; ++l) {
                const std::size_t at = l * Lane::pairs;
                const auto up = Lane::min(Lane::load(above + at),
                                          Lane::load(diag + at));
                const auto cost =
                    Lane::absDiff(a_i[l], Lane::load(b[l] + j * step));
                left[l] = Lane::add(cost, Lane::min(up, left[l]));
                Lane::store(cell + at, left[l]);
            }
        }
        std::swap(prev, curr);
        lo_back2 = lo_back1;
        lo_back1 = j_lo;
    }

#pragma GCC unroll 8
    for (std::size_t p = 0; p < block; ++p) {
        const double distance = prev[m * block + p];
        CM_ASSERT(std::isfinite(distance));
        out[p] = distance;
    }
}

} // namespace

std::size_t
dtwBandHalfWidth(std::size_t n, std::size_t m, double fraction)
{
    if (fraction <= 0.0)
        return std::max(n, m); // effectively unconstrained
    const std::size_t base = static_cast<std::size_t>(
        std::ceil(fraction * static_cast<double>(std::max(n, m))));
    // The band must at least cover the length difference or no path exists.
    const std::size_t diff = n > m ? n - m : m - n;
    return std::max(base, diff + 1);
}

double
dtwDistance(std::span<const double> a, std::span<const double> b,
            const DtwOptions &options)
{
    CM_ASSERT(!a.empty() && !b.empty());
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    const DtwPair pair{a, b};
    std::vector<double> scratch;
    double distance = 0.0;
    dtwLanes<ScalarLane, 1>(&pair, n, m,
                            dtwBandHalfWidth(n, m, options.bandFraction),
                            scratch, &distance);
    return distance;
}

void
dtwDistances(std::span<const DtwPair> pairs, const DtwOptions &options,
             std::span<double> out)
{
    CM_ASSERT(out.size() == pairs.size());
    if (pairs.empty())
        return;
    const std::size_t n = pairs[0].a.size();
    const std::size_t m = pairs[0].b.size();
    CM_ASSERT(n > 0 && m > 0);
    for (const DtwPair &pair : pairs)
        CM_ASSERT(pair.a.size() == n && pair.b.size() == m);
    const std::size_t band = dtwBandHalfWidth(n, m, options.bandFraction);
    std::vector<double> scratch;
    constexpr std::size_t block = kDtwLanes * BlockLane::pairs;
    std::size_t k = 0;
    for (; k + block <= pairs.size(); k += block)
        dtwLanes<BlockLane, kDtwLanes>(&pairs[k], n, m, band, scratch,
                                       &out[k]);
    for (; k < pairs.size(); ++k)
        dtwLanes<ScalarLane, 1>(&pairs[k], n, m, band, scratch, &out[k]);
}

double
dtwDistance(const TimeSeries &a, const TimeSeries &b,
            const DtwOptions &options)
{
    return dtwDistance(a.span(), b.span(), options);
}

DtwResult
dtwAlign(std::span<const double> a, std::span<const double> b,
         const DtwOptions &options)
{
    CM_ASSERT(!a.empty() && !b.empty());
    const std::size_t n = a.size();
    const std::size_t m = b.size();

    // Full matrix for traceback; fine for the series sizes the tests and
    // examples align (use dtwDistance for the hot path).
    std::vector<std::vector<double>> d(
        n, std::vector<double>(m, infinity));
    const std::size_t band = dtwBandHalfWidth(n, m, options.bandFraction);

    for (std::size_t i = 0; i < n; ++i) {
        const auto [j_lo, j_hi] = bandColumns(i, n, m, band);
        for (std::size_t j = j_lo; j < j_hi; ++j) {
            const double cost = std::abs(a[i] - b[j]);
            double best;
            if (i == 0 && j == 0) {
                best = 0.0;
            } else {
                best = infinity;
                if (i > 0)
                    best = std::min(best, d[i - 1][j]);
                if (j > 0)
                    best = std::min(best, d[i][j - 1]);
                if (i > 0 && j > 0)
                    best = std::min(best, d[i - 1][j - 1]);
            }
            d[i][j] = cost + best;
        }
    }

    DtwResult result;
    result.distance = d[n - 1][m - 1];
    CM_ASSERT(std::isfinite(result.distance));

    // Greedy traceback along minimal predecessors.
    std::size_t i = n - 1;
    std::size_t j = m - 1;
    result.path.emplace_back(i, j);
    while (i > 0 || j > 0) {
        double best = infinity;
        std::size_t ni = i;
        std::size_t nj = j;
        if (i > 0 && j > 0 && d[i - 1][j - 1] <= best) {
            best = d[i - 1][j - 1];
            ni = i - 1;
            nj = j - 1;
        }
        if (i > 0 && d[i - 1][j] < best) {
            best = d[i - 1][j];
            ni = i - 1;
            nj = j;
        }
        if (j > 0 && d[i][j - 1] < best) {
            best = d[i][j - 1];
            ni = i;
            nj = j - 1;
        }
        i = ni;
        j = nj;
        result.path.emplace_back(i, j);
    }
    std::reverse(result.path.begin(), result.path.end());
    return result;
}

} // namespace cminer::ts
