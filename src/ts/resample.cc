#include "ts/resample.h"

#include <algorithm>

#include "util/error.h"

namespace cminer::ts {

std::vector<double>
resampleLinear(const std::vector<double> &values, std::size_t target_length)
{
    CM_ASSERT(!values.empty());
    CM_ASSERT(target_length >= 1);
    std::vector<double> out(target_length);
    if (values.size() == 1) {
        std::fill(out.begin(), out.end(), values[0]);
        return out;
    }
    const double scale = static_cast<double>(values.size() - 1) /
                         static_cast<double>(
                             target_length > 1 ? target_length - 1 : 1);
    const double last = static_cast<double>(values.size() - 1);
    for (std::size_t i = 0; i < target_length; ++i) {
        double pos = static_cast<double>(i) * scale;
        // i * scale carries rounding error that can land past the last
        // index at the top of the range (an out-of-bounds read once
        // the truncated position reaches values.size()). Clamp, which
        // also pins the final sample to exactly values.back().
        if (!(pos < last))
            pos = last;
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, values.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        out[i] = values[lo] * (1.0 - frac) + values[hi] * frac;
    }
    return out;
}

} // namespace cminer::ts
