/**
 * @file
 * Scalar reference implementations of every kernel in simd.h.
 *
 * Included (anonymous namespace, so internal linkage per translation
 * unit) by kernels_scalar.cc to build the scalar dispatch table, and by
 * the SSE2/AVX2 translation units for the paths their vector code does
 * not cover (tiny inputs, wide edge tables). Internal linkage is
 * load-bearing: the AVX2 TU is compiled with -mavx2, and a shared
 * inline function picked from that TU by the linker could leak AVX2
 * instructions into code reached on non-AVX2 machines.
 *
 * The blocked reductions here define the canonical four-lane schedule
 * (see simd.h): lane l accumulates x[4i + l], lanes combine as
 * (l0 + l1) + (l2 + l3), and the tail is added sequentially. The
 * SSE2/AVX2 variants must perform the same additions in the same order.
 */

#ifndef CMINER_SIMD_SCALAR_IMPL_H
#define CMINER_SIMD_SCALAR_IMPL_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace {
namespace scalar_impl {

inline double
squaredDistanceBlocked(std::span<const double> a, std::span<const double> b)
{
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    const std::size_t n = a.size();
    const std::size_t main = n & ~std::size_t{3};
    for (std::size_t i = 0; i < main; i += 4) {
        const double d0 = a[i] - b[i];
        const double d1 = a[i + 1] - b[i + 1];
        const double d2 = a[i + 2] - b[i + 2];
        const double d3 = a[i + 3] - b[i + 3];
        a0 += d0 * d0;
        a1 += d1 * d1;
        a2 += d2 * d2;
        a3 += d3 * d3;
    }
    double total = (a0 + a1) + (a2 + a3);
    for (std::size_t i = main; i < n; ++i) {
        const double d = a[i] - b[i];
        total += d * d;
    }
    return total;
}

/** One LB_Keogh deviation term, shared by scalar main and tail loops. */
inline double
lbKeoghTerm(double lower, double upper, double c)
{
    if (c > upper)
        return c - upper;
    if (c < lower)
        return lower - c;
    return 0.0;
}

inline double
lbKeoghSumBlocked(std::span<const double> lower,
                  std::span<const double> upper,
                  std::span<const double> candidate)
{
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    const std::size_t n = candidate.size();
    const std::size_t main = n & ~std::size_t{3};
    for (std::size_t i = 0; i < main; i += 4) {
        a0 += lbKeoghTerm(lower[i], upper[i], candidate[i]);
        a1 += lbKeoghTerm(lower[i + 1], upper[i + 1], candidate[i + 1]);
        a2 += lbKeoghTerm(lower[i + 2], upper[i + 2], candidate[i + 2]);
        a3 += lbKeoghTerm(lower[i + 3], upper[i + 3], candidate[i + 3]);
    }
    double total = (a0 + a1) + (a2 + a3);
    for (std::size_t i = main; i < n; ++i)
        total += lbKeoghTerm(lower[i], upper[i], candidate[i]);
    return total;
}

inline void
windowMinMaxSeq(std::span<const double> values, double &min_out,
                double &max_out)
{
    double mn = values[0];
    double mx = values[0];
    for (std::size_t i = 1; i < values.size(); ++i) {
        mn = std::min(mn, values[i]);
        mx = std::max(mx, values[i]);
    }
    min_out = mn;
    max_out = mx;
}

inline void
minMaxFiniteSeq(std::span<const double> values, double &min_out,
                double &max_out, std::size_t &finite_count)
{
    double mn = 0.0;
    double mx = 0.0;
    std::size_t count = 0;
    for (double v : values) {
        if (!std::isfinite(v))
            continue;
        if (count == 0) {
            mn = mx = v;
        } else {
            mn = std::min(mn, v);
            mx = std::max(mx, v);
        }
        ++count;
    }
    min_out = mn;
    max_out = mx;
    finite_count = count;
}

inline std::size_t
countLessEqualSeq(std::span<const double> values, double threshold)
{
    std::size_t inside = 0;
    for (double v : values) {
        if (v <= threshold)
            ++inside;
    }
    return inside;
}

inline void
lowerBoundBinsSeq(std::span<const double> values,
                  std::span<const double> edges,
                  std::span<std::uint8_t> bins_out)
{
    const std::size_t clamp = edges.size() - 1;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const auto it =
            std::lower_bound(edges.begin(), edges.end(), values[i]);
        const std::size_t bin = std::min(
            static_cast<std::size_t>(it - edges.begin()), clamp);
        bins_out[i] = static_cast<std::uint8_t>(bin);
    }
}

inline void
equiWidthBinsSeq(std::span<const double> values, double low, double high,
                 double width, std::size_t bin_count,
                 std::span<std::uint32_t> bins_out)
{
    const std::uint32_t top = static_cast<std::uint32_t>(bin_count - 1);
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double v = values[i];
        std::uint32_t bin;
        if (width <= 0.0 || v <= low)
            bin = 0;
        else if (v >= high)
            bin = top;
        else
            bin = std::min(
                static_cast<std::uint32_t>((v - low) / width), top);
        bins_out[i] = bin;
    }
}

} // namespace scalar_impl
} // namespace

#endif // CMINER_SIMD_SCALAR_IMPL_H
