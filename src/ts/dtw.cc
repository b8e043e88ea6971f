#include "ts/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.h"

namespace cminer::ts {

namespace {

constexpr double infinity = std::numeric_limits<double>::infinity();

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
    const std::size_t band = dtwBandHalfWidth(n, m, options.bandFraction);

    // Two DP rows of m + 1 slots in one buffer; slot j + 1 holds column
    // j, and slot 0 (column -1) is never written, so it stays +inf.
    // Outside its band a row must read as +inf. Row i overwrites the
    // half that holds row i - 2, and band edges never move left, so the
    // only stale cells are those of row i - 2 left of row i's band.
    std::vector<double> rows(2 * (m + 1), infinity);
    double *prev = rows.data() + (m + 1);
    double *curr = rows.data();
    std::size_t lo_back1 = 0; // first band column of row i - 1
    std::size_t lo_back2 = 0; // ... and of row i - 2

    for (std::size_t i = 0; i < n; ++i) {
        const auto [j_lo, j_hi] = bandColumns(i, n, m, band);
        std::fill(curr + lo_back2 + 1, curr + j_lo + 1, infinity);
        // D(i, j) = |a_i - b_j| + min(D(i-1, j), D(i-1, j-1), D(i, j-1)).
        // The left neighbour of the band is +inf, except that cell
        // (0, 0) is seeded with 0. min is exact and DP values are never
        // NaN or -0, so the grouping of the three-way min keeps every
        // bit of the classic recurrence.
        const double a_i = a[i];
        double left = i == 0 ? 0.0 : infinity;
        for (std::size_t j = j_lo; j < j_hi; ++j) {
            const double up = std::min(prev[j + 1], prev[j]);
            left = std::abs(a_i - b[j]) + std::min(up, left);
            curr[j + 1] = left;
        }
        std::swap(prev, curr);
        lo_back2 = lo_back1;
        lo_back1 = j_lo;
    }

    double distance = prev[m];
    CM_ASSERT(std::isfinite(distance));
    if (options.normalizeByPathLength)
        distance /= static_cast<double>(n + m);
    return distance;
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
