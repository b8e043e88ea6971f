#include "stats/series_stats.h"

#include <algorithm>
#include <vector>

#include "stats/descriptive.h"
#include "util/error.h"

namespace cminer::stats {

namespace {

/** Average ranks (1-based) with tie handling. */
std::vector<double>
ranksOf(std::span<const double> values)
{
    std::vector<std::size_t> order(values.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return values[a] < values[b];
              });
    std::vector<double> ranks(values.size(), 0.0);
    std::size_t i = 0;
    while (i < order.size()) {
        std::size_t j = i;
        while (j + 1 < order.size() &&
               values[order[j + 1]] == values[order[i]])
            ++j;
        const double average =
            (static_cast<double>(i) + static_cast<double>(j)) / 2.0 +
            1.0;
        for (std::size_t k = i; k <= j; ++k)
            ranks[order[k]] = average;
        i = j + 1;
    }
    return ranks;
}

} // namespace

double
spearman(std::span<const double> x, std::span<const double> y)
{
    CM_ASSERT(x.size() == y.size());
    if (x.size() < 2)
        return 0.0;
    const auto rx = ranksOf(x);
    const auto ry = ranksOf(y);
    return pearson(rx, ry);
}

} // namespace cminer::stats
