#include "ts/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.h"

namespace cminer::ts {

namespace {

constexpr double infinity = std::numeric_limits<double>::infinity();

/**
 * Pairs dtwDistances runs side by side through one pass of the
 * recurrence (DESIGN.md §13 has the 1/2/4/8-lane measurements).
 */
constexpr std::size_t kDtwLanes = 4;

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
 * DTW of Lanes pairs of one n x m shape in lockstep, into out[0, Lanes).
 *
 * Each lane owns two DP rows of m + 1 slots; the rows of all lanes are
 * interleaved in `rows`, so slot s of lane l sits at s * Lanes + l.
 * Slot j + 1 holds column j, and slot 0 (column -1) is never written,
 * so it stays +inf. Outside its band a row must read as +inf. Row i
 * overwrites the half that holds row i - 2, and band edges never move
 * left, so the only stale cells are those of row i - 2 left of row i's
 * band. The band and that reset are shared by every lane; lanes never
 * read each other's slots, so each computes exactly its own pair.
 */
template <std::size_t Lanes>
void
dtwLanes(const DtwPair *pairs, std::size_t n, std::size_t m,
         std::size_t band, const DtwOptions &options,
         std::vector<double> &rows, double *out)
{
    const std::size_t stride = (m + 1) * Lanes;
    rows.assign(2 * stride, infinity);
    double *prev = rows.data() + stride;
    double *curr = rows.data();
    std::size_t lo_back1 = 0; // first band column of row i - 1
    std::size_t lo_back2 = 0; // ... and of row i - 2
    const double *a[Lanes] = {};
    const double *b[Lanes] = {};
#pragma GCC unroll 8
    for (std::size_t l = 0; l < Lanes; ++l) {
        a[l] = pairs[l].a.data();
        b[l] = pairs[l].b.data();
    }

    for (std::size_t i = 0; i < n; ++i) {
        const auto [j_lo, j_hi] = bandColumns(i, n, m, band);
        std::fill(curr + (lo_back2 + 1) * Lanes,
                  curr + (j_lo + 1) * Lanes, infinity);
        // D(i, j) = |a_i - b_j| + min(D(i-1, j), D(i-1, j-1), D(i, j-1)).
        // The left neighbour of the band is +inf, except that cell
        // (0, 0) is seeded with 0. min is exact and DP values are never
        // NaN or -0, so the grouping of the three-way min keeps every
        // bit of the classic recurrence. The lane loops must unroll
        // fully: only then do left and a_i stay in registers. D(i-1,
        // j-1) is read back from the row rather than carried from the
        // previous column; carrying it made GCC 12 put two register
        // moves on the serial left chain.
        double a_i[Lanes] = {};
        double left[Lanes] = {};
#pragma GCC unroll 8
        for (std::size_t l = 0; l < Lanes; ++l) {
            a_i[l] = a[l][i];
            left[l] = i == 0 ? 0.0 : infinity;
        }
        for (std::size_t j = j_lo; j < j_hi; ++j) {
            const double *diag = prev + j * Lanes;
            const double *above = diag + Lanes;
            double *cell = curr + (j + 1) * Lanes;
#pragma GCC unroll 8
            for (std::size_t l = 0; l < Lanes; ++l) {
                const double up = std::min(above[l], diag[l]);
                left[l] = std::abs(a_i[l] - b[l][j]) +
                          std::min(up, left[l]);
                cell[l] = left[l];
            }
        }
        std::swap(prev, curr);
        lo_back2 = lo_back1;
        lo_back1 = j_lo;
    }

#pragma GCC unroll 8
    for (std::size_t l = 0; l < Lanes; ++l) {
        double distance = prev[m * Lanes + l];
        CM_ASSERT(std::isfinite(distance));
        if (options.normalizeByPathLength)
            distance /= static_cast<double>(n + m);
        out[l] = distance;
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
    std::vector<double> rows;
    double distance = 0.0;
    dtwLanes<1>(&pair, n, m, dtwBandHalfWidth(n, m, options.bandFraction),
                options, rows, &distance);
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
    std::vector<double> rows;
    std::size_t k = 0;
    for (; k + kDtwLanes <= pairs.size(); k += kDtwLanes)
        dtwLanes<kDtwLanes>(&pairs[k], n, m, band, options, rows, &out[k]);
    for (; k < pairs.size(); ++k)
        dtwLanes<1>(&pairs[k], n, m, band, options, rows, &out[k]);
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
    if (options.normalizeByPathLength)
        result.distance /= static_cast<double>(n + m);

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
