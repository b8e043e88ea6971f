#include "mining/kmedoids.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/error.h"
#include "util/thread_pool.h"

namespace cminer::mining {

namespace {

/** Upper bound on SWAP iterations (each strictly lowers cost). */
constexpr std::size_t kMaxIterations = 64;

/**
 * Assignment cost of a medoid set: per-item nearest medoid (ties break
 * by the lowest cluster slot) computed in parallel into per-item slots,
 * then summed serially in item order so the floating-point reduction
 * order never depends on the thread count.
 */
double
assignmentCost(const std::vector<double> &matrix, std::size_t n,
               const std::vector<std::size_t> &medoids,
               std::vector<std::size_t> *assignment)
{
    std::vector<double> nearest(n);
    std::vector<std::size_t> slot(n);
    util::parallelFor(0, n, 256, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            double best = std::numeric_limits<double>::infinity();
            std::size_t best_slot = 0;
            for (std::size_t s = 0; s < medoids.size(); ++s) {
                const double d = matrix[i * n + medoids[s]];
                if (d < best) {
                    best = d;
                    best_slot = s;
                }
            }
            nearest[i] = best;
            slot[i] = best_slot;
        }
    });
    double cost = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        cost += nearest[i];
    if (assignment)
        *assignment = std::move(slot);
    return cost;
}

} // namespace

KMedoidsResult
kMedoids(const std::vector<double> &matrix, std::size_t n,
         const KMedoidsOptions &options, cminer::util::Rng &rng)
{
    CM_ASSERT(n >= 1);
    CM_ASSERT(matrix.size() == n * n);
    CM_ASSERT(options.k >= 1);
    const std::size_t k = std::min(options.k, n);

    KMedoidsResult result;
    result.medoids = rng.sampleIndices(n, k);
    std::sort(result.medoids.begin(), result.medoids.end());
    result.totalCost =
        assignmentCost(matrix, n, result.medoids, &result.assignment);

    // PAM SWAP: evaluate every (cluster slot, non-medoid item) swap,
    // apply the best strict improvement, repeat until none improves.
    std::vector<bool> is_medoid(n, false);
    for (std::size_t m : result.medoids)
        is_medoid[m] = true;
    for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
        std::vector<std::pair<std::size_t, std::size_t>> candidates;
        candidates.reserve(k * (n - k));
        for (std::size_t s = 0; s < k; ++s)
            for (std::size_t c = 0; c < n; ++c)
                if (!is_medoid[c])
                    candidates.emplace_back(s, c);
        if (candidates.empty())
            break;

        // Per-candidate cost slots: any thread may fill any slot, but
        // each candidate's cost is a self-contained serial reduction
        // and the argmin below walks slots in candidate order.
        std::vector<double> swap_cost(candidates.size());
        util::parallelFor(
            0, candidates.size(), 4,
            [&](std::size_t begin, std::size_t end) {
                std::vector<std::size_t> trial = result.medoids;
                for (std::size_t p = begin; p < end; ++p) {
                    trial = result.medoids;
                    trial[candidates[p].first] = candidates[p].second;
                    swap_cost[p] =
                        assignmentCost(matrix, n, trial, nullptr);
                }
            });

        std::size_t best_candidate = candidates.size();
        double best_cost = result.totalCost;
        for (std::size_t p = 0; p < candidates.size(); ++p) {
            if (swap_cost[p] < best_cost) {
                best_cost = swap_cost[p];
                best_candidate = p;
            }
        }
        if (best_candidate == candidates.size())
            break; // local optimum: no strict improvement left
        const auto [slot, item] = candidates[best_candidate];
        is_medoid[result.medoids[slot]] = false;
        is_medoid[item] = true;
        result.medoids[slot] = item;
        std::sort(result.medoids.begin(), result.medoids.end());
        result.totalCost = assignmentCost(matrix, n, result.medoids,
                                          &result.assignment);
        result.iterations = iter + 1;
    }
    return result;
}

} // namespace cminer::mining
