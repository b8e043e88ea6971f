#include "ml/metrics.h"

#include <cmath>

#include "util/error.h"

namespace cminer::ml {

double
mape(std::span<const double> actual, std::span<const double> predicted)
{
    CM_ASSERT(actual.size() == predicted.size());
    CM_ASSERT(!actual.empty());
    double total = 0.0;
    std::size_t used = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (std::abs(actual[i]) < 1e-12)
            continue;
        total += std::abs(actual[i] - predicted[i]) / std::abs(actual[i]);
        ++used;
    }
    if (used == 0)
        return 0.0;
    return 100.0 * total / static_cast<double>(used);
}

double
rmse(std::span<const double> actual, std::span<const double> predicted)
{
    CM_ASSERT(actual.size() == predicted.size());
    CM_ASSERT(!actual.empty());
    double total = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        const double d = actual[i] - predicted[i];
        total += d * d;
    }
    return std::sqrt(total / static_cast<double>(actual.size()));
}

double
residualVariance(std::span<const double> actual,
                 std::span<const double> predicted)
{
    CM_ASSERT(actual.size() == predicted.size());
    CM_ASSERT(!actual.empty());
    double total = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        const double d = predicted[i] - actual[i];
        total += d * d;
    }
    return total / static_cast<double>(actual.size());
}

} // namespace cminer::ml
