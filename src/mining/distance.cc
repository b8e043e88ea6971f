#include "mining/distance.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "ts/dtw.h"
#include "ts/lb_keogh.h"
#include "ts/resample.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace cminer::mining {

std::vector<double>
makeSignature(std::span<const double> values,
              const SignatureOptions &options)
{
    CM_ASSERT(!values.empty());
    CM_ASSERT(options.length >= 2);
    std::vector<double> source(values.begin(), values.end());
    std::vector<double> signature =
        ts::resampleLinear(source, options.length);
    if (options.zNormalize)
        ts::zNormalize(signature);
    return signature;
}

std::vector<double>
runSignature(const cminer::store::StoreSnapshot &snap,
             cminer::store::RunId id, const SignatureOptions &options)
{
    return makeSignature(snap.values(id, options.event), options);
}

double
signatureDistance(std::span<const double> a, std::span<const double> b,
                  const SignatureOptions &options)
{
    ts::DtwOptions dtw;
    dtw.bandFraction = options.bandFraction;
    return ts::dtwDistance(a, b, dtw);
}

std::vector<double>
dtwDistanceMatrix(const std::vector<std::vector<double>> &signatures,
                  const SignatureOptions &options)
{
    const std::size_t n = signatures.size();
    for (const auto &s : signatures)
        CM_ASSERT(s.size() == options.length);
    std::vector<double> matrix(n * n, 0.0);
    if (n < 2)
        return matrix;
    // Flatten the strict upper triangle: pair p -> (i, j), i < j. The
    // mapping depends only on p, and each pair owns its two mirror
    // slots, so chunking the pair range over the pool cannot change a
    // single bit of the result. Every pair has one shape, so a chunk's
    // pairs go to the lockstep kernel together; each gets exactly the
    // bits ts::dtwDistance would give it.
    const std::size_t pairs = n * (n - 1) / 2;
    constexpr std::size_t grain = 8;
    ts::DtwOptions dtw;
    dtw.bandFraction = options.bandFraction;
    util::parallelFor(0, pairs, grain, [&](std::size_t begin,
                                           std::size_t end) {
        const std::size_t count = end - begin;
        CM_ASSERT(count <= grain);
        // Invert p = i*n - i*(i+1)/2 + (j - i - 1) for the chunk's
        // first pair by walking rows; later pairs step along the
        // triangle.
        std::size_t i = 0;
        std::size_t offset = begin;
        while (offset >= n - i - 1) {
            offset -= n - i - 1;
            ++i;
        }
        std::size_t j = i + 1 + offset;
        std::array<ts::DtwPair, grain> chunk{};
        std::array<std::pair<std::size_t, std::size_t>, grain> cells{};
        for (std::size_t k = 0; k < count; ++k) {
            chunk[k] = {signatures[i], signatures[j]};
            cells[k] = {i, j};
            if (++j == n) {
                ++i;
                j = i + 1;
            }
        }
        std::array<double, grain> distances{};
        ts::dtwDistances(std::span(chunk).first(count), dtw,
                         std::span(distances).first(count));
        for (std::size_t k = 0; k < count; ++k) {
            const auto [row, col] = cells[k];
            matrix[row * n + col] = distances[k];
            matrix[col * n + row] = distances[k];
        }
    });
    return matrix;
}

NearestMedoid
nearestMedoid(std::span<const double> signature,
              std::span<const std::span<const double>> medoids,
              const SignatureOptions &options)
{
    CM_ASSERT(!medoids.empty());
    CM_ASSERT(signature.size() == options.length);
    const std::size_t n = signature.size();
    // The envelope radius must cover the DTW band or the "bound" could
    // exceed the true distance (mirrors ts::nearestNeighborDtw). Band 0
    // is unconstrained DTW and gets a whole-series envelope.
    const std::size_t radius =
        ts::dtwBandHalfWidth(n, n, options.bandFraction) + 1;
    const ts::Envelope envelope = ts::computeEnvelope(signature, radius);

    ts::DtwOptions dtw;
    dtw.bandFraction = options.bandFraction;

    // Bound-first visiting order: the best true distance is found
    // early, so later candidates are pruned by their bound alone. Ties
    // on the bound break by ascending medoid index, keeping the visit
    // order — and therefore dtwEvaluations — deterministic.
    std::vector<std::pair<double, std::size_t>> order;
    order.reserve(medoids.size());
    for (std::size_t m = 0; m < medoids.size(); ++m) {
        CM_ASSERT(medoids[m].size() == options.length);
        order.emplace_back(ts::lbKeogh(envelope, medoids[m]), m);
    }
    std::sort(order.begin(), order.end());

    NearestMedoid result;
    result.distance = std::numeric_limits<double>::infinity();
    for (const auto &[bound, m] : order) {
        // Strict comparison: a bound *equal* to the best distance could
        // hide an exact tie at a lower medoid index, and the result is
        // pinned to brute force's minimal (distance, index).
        if (bound > result.distance)
            break; // every remaining medoid is bounded out
        const double distance =
            ts::dtwDistance(signature, medoids[m], dtw);
        ++result.dtwEvaluations;
        if (distance < result.distance ||
            (distance == result.distance && m < result.index)) {
            result.distance = distance;
            result.index = m;
        }
    }
    return result;
}

} // namespace cminer::mining
