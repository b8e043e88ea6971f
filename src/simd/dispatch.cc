/**
 * @file
 * Runtime level selection and the public kernel entry points.
 *
 * The level is resolved once, lazily, from setLevel() > CMINER_SIMD >
 * the CPUID probe, and every kernel call reads the resolved table
 * through one relaxed atomic load — cheap enough for the hot loops and
 * still switchable mid-process by the differential tests.
 */

#include "simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/logging.h"

namespace cminer::simd {

namespace {

const detail::KernelTable *
tableFor(Level level)
{
    switch (level) {
      case Level::Avx2:
        if (const auto *t = detail::avx2Table())
            return t;
        [[fallthrough]];
      case Level::Sse2:
        if (const auto *t = detail::sse2Table())
            return t;
        [[fallthrough]];
      case Level::Scalar:
        break;
    }
    return &detail::scalarTable();
}

Level
probeLevel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (detail::avx2Table() != nullptr && __builtin_cpu_supports("avx2"))
        return Level::Avx2;
    if (detail::sse2Table() != nullptr && __builtin_cpu_supports("sse2"))
        return Level::Sse2;
#endif
    return Level::Scalar;
}

std::atomic<const detail::KernelTable *> g_table{nullptr};
std::atomic<int> g_level{-1};

/** CMINER_SIMD clamped to what this machine can run, else detected. */
Level
initialLevel()
{
    const char *env = std::getenv("CMINER_SIMD");
    if (env == nullptr || *env == '\0')
        return detectedLevel();
    const auto parsed = parseLevelName(env);
    if (!parsed.has_value()) {
        util::warn(std::string("CMINER_SIMD=") + env +
                   " is not scalar|sse2|avx2; using " +
                   levelName(detectedLevel()));
        return detectedLevel();
    }
    if (*parsed > detectedLevel()) {
        util::warn(std::string("CMINER_SIMD=") + env +
                   " exceeds what this machine supports; clamping to " +
                   levelName(detectedLevel()));
        return detectedLevel();
    }
    return *parsed;
}

const detail::KernelTable &
activeTable()
{
    const detail::KernelTable *t =
        g_table.load(std::memory_order_relaxed);
    if (t == nullptr) {
        setLevel(initialLevel());
        t = g_table.load(std::memory_order_relaxed);
    }
    return *t;
}

} // namespace

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Scalar:
        return "scalar";
      case Level::Sse2:
        return "sse2";
      case Level::Avx2:
        return "avx2";
    }
    return "scalar";
}

std::optional<Level>
parseLevelName(std::string_view name)
{
    if (name == "scalar")
        return Level::Scalar;
    if (name == "sse2")
        return Level::Sse2;
    if (name == "avx2")
        return Level::Avx2;
    return std::nullopt;
}

Level
detectedLevel()
{
    static const Level level = probeLevel();
    return level;
}

Level
activeLevel()
{
    const int v = g_level.load(std::memory_order_relaxed);
    if (v >= 0)
        return static_cast<Level>(v);
    setLevel(initialLevel());
    return static_cast<Level>(g_level.load(std::memory_order_relaxed));
}

void
setLevel(Level level)
{
    const Level clamped = level > detectedLevel() ? detectedLevel() : level;
    g_table.store(tableFor(clamped), std::memory_order_relaxed);
    g_level.store(static_cast<int>(clamped), std::memory_order_relaxed);
}

std::vector<Level>
availableLevels()
{
    std::vector<Level> levels;
    for (int l = 0; l <= static_cast<int>(detectedLevel()); ++l)
        levels.push_back(static_cast<Level>(l));
    return levels;
}

double
squaredDistance(std::span<const double> a, std::span<const double> b)
{
    return activeTable().squaredDistance(a, b);
}

double
lbKeoghSum(std::span<const double> lower, std::span<const double> upper,
           std::span<const double> candidate)
{
    return activeTable().lbKeoghSum(lower, upper, candidate);
}

void
windowMinMax(std::span<const double> values, double &min_out,
             double &max_out)
{
    activeTable().windowMinMax(values, min_out, max_out);
}

void
minMaxFinite(std::span<const double> values, double &min_out,
             double &max_out, std::size_t &finite_count)
{
    activeTable().minMaxFinite(values, min_out, max_out, finite_count);
}

std::size_t
countLessEqual(std::span<const double> values, double threshold)
{
    return activeTable().countLessEqual(values, threshold);
}

void
lowerBoundBins(std::span<const double> values,
               std::span<const double> edges,
               std::span<std::uint8_t> bins_out)
{
    activeTable().lowerBoundBins(values, edges, bins_out);
}

void
equiWidthBins(std::span<const double> values, double low, double high,
              double width, std::size_t bin_count,
              std::span<std::uint32_t> bins_out)
{
    activeTable().equiWidthBins(values, low, high, width, bin_count,
                                bins_out);
}

} // namespace cminer::simd
