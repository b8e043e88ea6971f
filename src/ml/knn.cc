#include "ml/knn.h"

#include <algorithm>
#include <unordered_set>

#include "util/error.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace cminer::ml {

std::size_t
knnImputeSeries(std::span<double> values,
                const std::vector<std::size_t> &missing, std::size_t k)
{
    CM_ASSERT(k >= 1);
    if (missing.empty())
        return 0;

    std::unordered_set<std::size_t> missing_set(missing.begin(),
                                                missing.end());
    // Observed indices, in order.
    std::vector<std::size_t> observed;
    observed.reserve(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (!missing_set.count(i))
            observed.push_back(i);
    }
    if (observed.empty()) {
        // Nothing to impute from. Returning the values untouched would
        // let NaN/negative samples survive into the dataset and poison
        // every model fit downstream; fall back to the paper's "no
        // information" value of 0.0 for the whole series and report the
        // repairs so the caller's accounting stays exact.
        for (std::size_t idx : missing) {
            CM_ASSERT(idx < values.size());
            values[idx] = 0.0;
        }
        cminer::util::count("knn.all_missing_zero_filled",
                            missing.size());
        return missing.size();
    }

    // Every imputation reads only *observed* positions (never another
    // missing slot, imputed or not) and writes its own missing slot, so
    // the missing indices — which are distinct — can be processed in any
    // order, chunked across threads, with bit-identical results.
    cminer::util::parallelFor(
        0, missing.size(), 64,
        [&](std::size_t chunk_lo, std::size_t chunk_hi) {
            for (std::size_t m = chunk_lo; m < chunk_hi; ++m) {
                const std::size_t idx = missing[m];
                CM_ASSERT(idx < values.size());
                // Locate the insertion point among observed indices and
                // expand outward to collect the k nearest by index
                // distance.
                auto it = std::lower_bound(observed.begin(),
                                           observed.end(), idx);
                std::size_t right = static_cast<std::size_t>(
                    it - observed.begin());
                std::size_t left = right; // left nbr is observed[left-1]
                double total = 0.0;
                std::size_t taken = 0;
                while (taken < k && (left > 0 || right < observed.size())) {
                    const bool has_left = left > 0;
                    const bool has_right = right < observed.size();
                    bool take_left;
                    if (has_left && has_right) {
                        const std::size_t dl = idx - observed[left - 1];
                        const std::size_t dr = observed[right] - idx;
                        take_left = dl <= dr;
                    } else {
                        take_left = has_left;
                    }
                    if (take_left) {
                        total += values[observed[left - 1]];
                        --left;
                    } else {
                        total += values[observed[right]];
                        ++right;
                    }
                    ++taken;
                }
                values[idx] = total / static_cast<double>(taken);
            }
        });
    return missing.size();
}

} // namespace cminer::ml
