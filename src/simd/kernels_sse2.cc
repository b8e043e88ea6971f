/**
 * @file
 * SSE2 dispatch table. Two 128-bit registers model lanes {0,1} and
 * {2,3} of the four-lane block schedule, so every blocked reduction
 * performs the same additions in the same order as the scalar table.
 * Kernels fall back to the scalar reference for shapes the vector code
 * does not cover (tiny spans, wide edge tables); both paths satisfy the
 * same exactness tier, so the thresholds are pure tuning knobs.
 */

#include "simd/simd.h"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "simd/scalar_impl.h"

namespace {
namespace sse2_impl {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** mask ? a : b, lane-wise (mask lanes all-ones or all-zeros). */
inline __m128d
sel(__m128d mask, __m128d a, __m128d b)
{
    return _mm_or_pd(_mm_and_pd(mask, a), _mm_andnot_pd(mask, b));
}

inline double
lane0(__m128d v)
{
    return _mm_cvtsd_f64(v);
}

inline double
lane1(__m128d v)
{
    return _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
}

/** lane0 + lane1, as one scalar addition. */
inline double
laneSum(__m128d v)
{
    return lane0(v) + lane1(v);
}

inline double
squaredDistance(std::span<const double> a, std::span<const double> b)
{
    const std::size_t n = a.size();
    const std::size_t main = n & ~std::size_t{3};
    const double *pa = a.data();
    const double *pb = b.data();
    __m128d acc01 = _mm_setzero_pd();
    __m128d acc23 = _mm_setzero_pd();
    for (std::size_t i = 0; i < main; i += 4) {
        const __m128d d01 =
            _mm_sub_pd(_mm_loadu_pd(pa + i), _mm_loadu_pd(pb + i));
        const __m128d d23 =
            _mm_sub_pd(_mm_loadu_pd(pa + i + 2), _mm_loadu_pd(pb + i + 2));
        acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
        acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
    }
    double total = laneSum(acc01) + laneSum(acc23);
    for (std::size_t i = main; i < n; ++i) {
        const double d = pa[i] - pb[i];
        total += d * d;
    }
    return total;
}

/**
 * Lane-wise LB_Keogh deviation term with the scalar branch priority:
 * c > u wins over c < l, else exactly +0.0.
 */
inline __m128d
lbTerm(__m128d l, __m128d u, __m128d c)
{
    const __m128d over = _mm_cmpgt_pd(c, u);
    const __m128d under = _mm_cmplt_pd(c, l);
    return sel(over, _mm_sub_pd(c, u),
               sel(under, _mm_sub_pd(l, c), _mm_setzero_pd()));
}

inline double
lbKeoghSum(std::span<const double> lower, std::span<const double> upper,
           std::span<const double> candidate)
{
    const std::size_t n = candidate.size();
    const std::size_t main = n & ~std::size_t{3};
    const double *pl = lower.data();
    const double *pu = upper.data();
    const double *pc = candidate.data();
    __m128d acc01 = _mm_setzero_pd();
    __m128d acc23 = _mm_setzero_pd();
    for (std::size_t i = 0; i < main; i += 4) {
        acc01 = _mm_add_pd(acc01,
                           lbTerm(_mm_loadu_pd(pl + i), _mm_loadu_pd(pu + i),
                                  _mm_loadu_pd(pc + i)));
        acc23 = _mm_add_pd(
            acc23, lbTerm(_mm_loadu_pd(pl + i + 2), _mm_loadu_pd(pu + i + 2),
                          _mm_loadu_pd(pc + i + 2)));
    }
    double total = laneSum(acc01) + laneSum(acc23);
    for (std::size_t i = main; i < n; ++i)
        total += scalar_impl::lbKeoghTerm(pl[i], pu[i], pc[i]);
    return total;
}

inline void
windowMinMax(std::span<const double> values, double &min_out,
             double &max_out)
{
    const std::size_t n = values.size();
    if (n < 8) {
        scalar_impl::windowMinMaxSeq(values, min_out, max_out);
        return;
    }
    const double *p = values.data();
    __m128d mn_v = _mm_loadu_pd(p);
    __m128d mx_v = mn_v;
    std::size_t i = 2;
    for (; i + 2 <= n; i += 2) {
        const __m128d v = _mm_loadu_pd(p + i);
        mn_v = _mm_min_pd(v, mn_v);
        mx_v = _mm_max_pd(v, mx_v);
    }
    double mn = std::min(lane0(mn_v), lane1(mn_v));
    double mx = std::max(lane0(mx_v), lane1(mx_v));
    for (; i < n; ++i) {
        mn = std::min(mn, p[i]);
        mx = std::max(mx, p[i]);
    }
    min_out = mn;
    max_out = mx;
}

inline void
minMaxFinite(std::span<const double> values, double &min_out,
             double &max_out, std::size_t &finite_count)
{
    const std::size_t n = values.size();
    if (n < 8) {
        scalar_impl::minMaxFiniteSeq(values, min_out, max_out,
                                     finite_count);
        return;
    }
    const double *p = values.data();
    const __m128d inf_v = _mm_set1_pd(kInf);
    const __m128d abs_mask =
        _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL));
    __m128d mn_v = inf_v;
    __m128d mx_v = _mm_set1_pd(-kInf);
    std::size_t count = 0;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128d v = _mm_loadu_pd(p + i);
        const __m128d finite =
            _mm_cmplt_pd(_mm_and_pd(v, abs_mask), inf_v);
        mn_v = sel(finite, _mm_min_pd(v, mn_v), mn_v);
        mx_v = sel(finite, _mm_max_pd(v, mx_v), mx_v);
        count += std::popcount(
            static_cast<unsigned>(_mm_movemask_pd(finite)));
    }
    double mn = std::min(lane0(mn_v), lane1(mn_v));
    double mx = std::max(lane0(mx_v), lane1(mx_v));
    for (; i < n; ++i) {
        const double v = p[i];
        if (!std::isfinite(v))
            continue;
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        ++count;
    }
    if (count == 0) {
        min_out = 0.0;
        max_out = 0.0;
        finite_count = 0;
        return;
    }
    min_out = mn;
    max_out = mx;
    finite_count = count;
}

inline std::size_t
countLessEqual(std::span<const double> values, double threshold)
{
    const std::size_t n = values.size();
    const double *p = values.data();
    const __m128d t_v = _mm_set1_pd(threshold);
    std::size_t count = 0;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        count += std::popcount(static_cast<unsigned>(
            _mm_movemask_pd(_mm_cmple_pd(_mm_loadu_pd(p + i), t_v))));
    }
    for (; i < n; ++i) {
        if (p[i] <= threshold)
            ++count;
    }
    return count;
}

inline void
lowerBoundBins(std::span<const double> values,
               std::span<const double> edges,
               std::span<std::uint8_t> bins_out)
{
    // For wide tables binary search beats the O(B) compare sweep.
    if (edges.size() > 32) {
        scalar_impl::lowerBoundBinsSeq(values, edges, bins_out);
        return;
    }
    const std::size_t clamp = edges.size() - 1;
    const std::size_t n = values.size();
    const double *p = values.data();
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128d v = _mm_loadu_pd(p + i);
        __m128i cnt = _mm_setzero_si128();
        for (const double e : edges) {
            // lower_bound index == #edges strictly below the value.
            cnt = _mm_sub_epi64(
                cnt, _mm_castpd_si128(_mm_cmplt_pd(_mm_set1_pd(e), v)));
        }
        alignas(16) std::int64_t c[2];
        _mm_store_si128(reinterpret_cast<__m128i *>(c), cnt);
        bins_out[i] = static_cast<std::uint8_t>(
            std::min(static_cast<std::size_t>(c[0]), clamp));
        bins_out[i + 1] = static_cast<std::uint8_t>(
            std::min(static_cast<std::size_t>(c[1]), clamp));
    }
    if (i < n) {
        scalar_impl::lowerBoundBinsSeq(values.subspan(i), edges,
                                       bins_out.subspan(i));
    }
}

inline void
equiWidthBins(std::span<const double> values, double low, double high,
              double width, std::size_t bin_count,
              std::span<std::uint32_t> bins_out)
{
    if (width <= 0.0) {
        std::fill(bins_out.begin(), bins_out.end(), std::uint32_t{0});
        return;
    }
    const std::uint32_t top = static_cast<std::uint32_t>(bin_count - 1);
    const std::size_t n = values.size();
    const double *p = values.data();
    const __m128d low_v = _mm_set1_pd(low);
    const __m128d high_v = _mm_set1_pd(high);
    const __m128d width_v = _mm_set1_pd(width);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128d v = _mm_loadu_pd(p + i);
        const int lo_m = _mm_movemask_pd(_mm_cmple_pd(v, low_v));
        const int hi_m = _mm_movemask_pd(_mm_cmple_pd(high_v, v));
        // The divide is the expensive op; truncating conversion matches
        // the scalar static_cast for the in-range lanes, and the
        // out-of-range lanes are overridden by the masks.
        const __m128d q = _mm_div_pd(_mm_sub_pd(v, low_v), width_v);
        alignas(16) int idx[4];
        _mm_store_si128(reinterpret_cast<__m128i *>(idx),
                        _mm_cvttpd_epi32(q));
        for (int lane = 0; lane < 2; ++lane) {
            std::uint32_t bin;
            if ((lo_m >> lane) & 1)
                bin = 0;
            else if ((hi_m >> lane) & 1)
                bin = top;
            else
                bin = std::min(static_cast<std::uint32_t>(idx[lane]), top);
            bins_out[i + static_cast<std::size_t>(lane)] = bin;
        }
    }
    if (i < n) {
        scalar_impl::equiWidthBinsSeq(values.subspan(i), low, high, width,
                                      bin_count, bins_out.subspan(i));
    }
}

} // namespace sse2_impl
} // namespace

namespace cminer::simd::detail {

const KernelTable *
sse2Table()
{
    static const KernelTable table = {
        sse2_impl::squaredDistance,
        sse2_impl::lbKeoghSum,
        sse2_impl::windowMinMax,
        sse2_impl::minMaxFinite,
        sse2_impl::countLessEqual,
        sse2_impl::lowerBoundBins,
        sse2_impl::equiWidthBins,
    };
    return &table;
}

} // namespace cminer::simd::detail

#else // !defined(__SSE2__)

namespace cminer::simd::detail {

const KernelTable *
sse2Table()
{
    return nullptr;
}

} // namespace cminer::simd::detail

#endif
