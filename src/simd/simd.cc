/**
 * @file
 * lowerBoundBins in the build's baseline instruction set.
 */

#include "simd/simd.h"

#include <algorithm>
#include <cstddef>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace cminer::simd {

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Scalar:
        return "scalar";
      case Level::Sse2:
        return "sse2";
    }
    return "scalar";
}

Level
activeLevel()
{
#if defined(__SSE2__)
    return Level::Sse2;
#else
    return Level::Scalar;
#endif
}

void
lowerBoundBins(std::span<const double> values,
               std::span<const double> edges,
               std::span<std::uint8_t> bins_out)
{
    const std::size_t clamp = edges.size() - 1;
    const std::size_t n = values.size();
    std::size_t i = 0;
#if defined(__SSE2__)
    // Two values per register, one splat-compare-subtract per edge: the
    // lower_bound index is the number of edges strictly below a value.
    // For wide tables binary search beats the O(B) sweep.
    if (edges.size() <= 32) {
        const double *p = values.data();
        for (; i + 2 <= n; i += 2) {
            const __m128d v = _mm_loadu_pd(p + i);
            __m128i cnt = _mm_setzero_si128();
            for (const double e : edges) {
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
    }
#endif
    for (; i < n; ++i) {
        const auto it =
            std::lower_bound(edges.begin(), edges.end(), values[i]);
        bins_out[i] = static_cast<std::uint8_t>(
            std::min(static_cast<std::size_t>(it - edges.begin()), clamp));
    }
}

} // namespace cminer::simd
