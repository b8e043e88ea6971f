/**
 * @file
 * AVX2 dispatch table. One 256-bit register carries all four lanes of
 * the block schedule, so blocked reductions perform the same additions
 * in the same order as the scalar and SSE2 tables. This TU is the only
 * one compiled with -mavx2; everything it includes is internal-linkage
 * so no AVX2 code can leak into other call paths through the linker.
 */

#include "simd/simd.h"

#if defined(CMINER_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "simd/scalar_impl.h"

namespace {
namespace avx2_impl {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

/** (l0 + l1) + (l2 + l3) — the canonical lane combine. */
inline double
laneCombine(__m256d v)
{
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    return (lane0(lo) + lane1(lo)) + (lane0(hi) + lane1(hi));
}

inline double
squaredDistance(std::span<const double> a, std::span<const double> b)
{
    const std::size_t n = a.size();
    const std::size_t main = n & ~std::size_t{3};
    const double *pa = a.data();
    const double *pb = b.data();
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < main; i += 4) {
        const __m256d d =
            _mm256_sub_pd(_mm256_loadu_pd(pa + i), _mm256_loadu_pd(pb + i));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    double total = laneCombine(acc);
    for (std::size_t i = main; i < n; ++i) {
        const double d = pa[i] - pb[i];
        total += d * d;
    }
    return total;
}

/** Lane-wise LB_Keogh term; c > u wins over c < l, else exactly +0.0. */
inline __m256d
lbTerm(__m256d l, __m256d u, __m256d c)
{
    const __m256d over = _mm256_cmp_pd(c, u, _CMP_GT_OQ);
    const __m256d under = _mm256_cmp_pd(c, l, _CMP_LT_OQ);
    const __m256d inner = _mm256_blendv_pd(_mm256_setzero_pd(),
                                           _mm256_sub_pd(l, c), under);
    return _mm256_blendv_pd(inner, _mm256_sub_pd(c, u), over);
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
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < main; i += 4) {
        acc = _mm256_add_pd(
            acc, lbTerm(_mm256_loadu_pd(pl + i), _mm256_loadu_pd(pu + i),
                        _mm256_loadu_pd(pc + i)));
    }
    double total = laneCombine(acc);
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
    __m256d mn_v = _mm256_loadu_pd(p);
    __m256d mx_v = mn_v;
    std::size_t i = 4;
    for (; i + 4 <= n; i += 4) {
        const __m256d v = _mm256_loadu_pd(p + i);
        mn_v = _mm256_min_pd(v, mn_v);
        mx_v = _mm256_max_pd(v, mx_v);
    }
    const __m128d mn_lo = _mm256_castpd256_pd128(mn_v);
    const __m128d mn_hi = _mm256_extractf128_pd(mn_v, 1);
    const __m128d mx_lo = _mm256_castpd256_pd128(mx_v);
    const __m128d mx_hi = _mm256_extractf128_pd(mx_v, 1);
    double mn = std::min(std::min(lane0(mn_lo), lane1(mn_lo)),
                         std::min(lane0(mn_hi), lane1(mn_hi)));
    double mx = std::max(std::max(lane0(mx_lo), lane1(mx_lo)),
                         std::max(lane0(mx_hi), lane1(mx_hi)));
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
    const __m256d inf_v = _mm256_set1_pd(kInf);
    const __m256d abs_mask = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x7fffffffffffffffLL));
    __m256d mn_v = inf_v;
    __m256d mx_v = _mm256_set1_pd(-kInf);
    std::size_t count = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d v = _mm256_loadu_pd(p + i);
        const __m256d finite = _mm256_cmp_pd(_mm256_and_pd(v, abs_mask),
                                             inf_v, _CMP_LT_OQ);
        mn_v = _mm256_blendv_pd(mn_v, _mm256_min_pd(v, mn_v), finite);
        mx_v = _mm256_blendv_pd(mx_v, _mm256_max_pd(v, mx_v), finite);
        count += std::popcount(
            static_cast<unsigned>(_mm256_movemask_pd(finite)));
    }
    const __m128d mn_lo = _mm256_castpd256_pd128(mn_v);
    const __m128d mn_hi = _mm256_extractf128_pd(mn_v, 1);
    const __m128d mx_lo = _mm256_castpd256_pd128(mx_v);
    const __m128d mx_hi = _mm256_extractf128_pd(mx_v, 1);
    double mn = std::min(std::min(lane0(mn_lo), lane1(mn_lo)),
                         std::min(lane0(mn_hi), lane1(mn_hi)));
    double mx = std::max(std::max(lane0(mx_lo), lane1(mx_lo)),
                         std::max(lane0(mx_hi), lane1(mx_hi)));
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
    const __m256d t_v = _mm256_set1_pd(threshold);
    std::size_t count = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        count += std::popcount(static_cast<unsigned>(_mm256_movemask_pd(
            _mm256_cmp_pd(_mm256_loadu_pd(p + i), t_v, _CMP_LE_OQ))));
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
    if (edges.size() > 32) {
        scalar_impl::lowerBoundBinsSeq(values, edges, bins_out);
        return;
    }
    const std::size_t clamp = edges.size() - 1;
    const std::size_t n = values.size();
    const double *p = values.data();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d v = _mm256_loadu_pd(p + i);
        __m256i cnt = _mm256_setzero_si256();
        for (const double e : edges) {
            // lower_bound index == #edges strictly below the value.
            cnt = _mm256_sub_epi64(
                cnt, _mm256_castpd_si256(
                         _mm256_cmp_pd(_mm256_set1_pd(e), v, _CMP_LT_OQ)));
        }
        alignas(32) std::int64_t c[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(c), cnt);
        for (int lane = 0; lane < 4; ++lane) {
            bins_out[i + static_cast<std::size_t>(lane)] =
                static_cast<std::uint8_t>(
                    std::min(static_cast<std::size_t>(c[lane]), clamp));
        }
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
    const __m256d low_v = _mm256_set1_pd(low);
    const __m256d high_v = _mm256_set1_pd(high);
    const __m256d width_v = _mm256_set1_pd(width);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d v = _mm256_loadu_pd(p + i);
        const int lo_m = _mm256_movemask_pd(
            _mm256_cmp_pd(v, low_v, _CMP_LE_OQ));
        const int hi_m = _mm256_movemask_pd(
            _mm256_cmp_pd(high_v, v, _CMP_LE_OQ));
        // The divide is the expensive op; truncating conversion matches
        // the scalar static_cast for the in-range lanes, and the
        // out-of-range lanes are overridden by the masks.
        const __m256d q =
            _mm256_div_pd(_mm256_sub_pd(v, low_v), width_v);
        alignas(16) int idx[4];
        _mm_store_si128(reinterpret_cast<__m128i *>(idx),
                        _mm256_cvttpd_epi32(q));
        for (int lane = 0; lane < 4; ++lane) {
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

} // namespace avx2_impl
} // namespace

namespace cminer::simd::detail {

const KernelTable *
avx2Table()
{
    static const KernelTable table = {
        avx2_impl::squaredDistance,
        avx2_impl::lbKeoghSum,
        avx2_impl::windowMinMax,
        avx2_impl::minMaxFinite,
        avx2_impl::countLessEqual,
        avx2_impl::lowerBoundBins,
        avx2_impl::equiWidthBins,
    };
    return &table;
}

} // namespace cminer::simd::detail

#else // !CMINER_HAVE_AVX2

namespace cminer::simd::detail {

const KernelTable *
avx2Table()
{
    return nullptr;
}

} // namespace cminer::simd::detail

#endif
