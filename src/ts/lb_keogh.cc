#include "ts/lb_keogh.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/descriptive.h"
#include "ts/dtw.h"
#include "ts/resample.h"
#include "util/error.h"

namespace cminer::ts {

namespace {

/** One LB_Keogh deviation term: how far c lies outside [lower, upper]. */
double
lbKeoghTerm(double lower, double upper, double c)
{
    if (c > upper)
        return c - upper;
    if (c < lower)
        return lower - c;
    return 0.0;
}

} // namespace

Envelope
computeEnvelope(std::span<const double> values, std::size_t radius)
{
    CM_ASSERT(!values.empty());
    const std::size_t n = values.size();
    Envelope env;
    env.upper.resize(n);
    env.lower.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t lo = i > radius ? i - radius : 0;
        const std::size_t hi = std::min(n - 1, i + radius);
        double mn = values[lo];
        double mx = values[lo];
        for (std::size_t j = lo + 1; j <= hi; ++j) {
            mn = std::min(mn, values[j]);
            mx = std::max(mx, values[j]);
        }
        env.lower[i] = mn;
        env.upper[i] = mx;
    }
    return env;
}

/**
 * The deviation terms are summed under a fixed four-lane block schedule:
 * lane l accumulates the terms 4i + l in index order, the lanes combine
 * as (l0 + l1) + (l2 + l3), then the n % 4 tail terms are added in
 * order. The schedule's rounding is part of the bound's bits, and the
 * bound orders nearestMedoid's DTW visits.
 */
double
lbKeogh(const Envelope &envelope, std::span<const double> candidate)
{
    CM_ASSERT(envelope.upper.size() == candidate.size());
    CM_ASSERT(envelope.lower.size() == candidate.size());
    const std::span<const double> lower = envelope.lower;
    const std::span<const double> upper = envelope.upper;
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

NearestResult
nearestNeighborDtw(const TimeSeries &query,
                   const std::vector<TimeSeries> &candidates,
                   double band_fraction)
{
    CM_ASSERT(!candidates.empty());
    CM_ASSERT(!query.empty());
    const std::size_t n = query.size();
    // The envelope radius must be at least as wide as the DTW band or
    // the "bound" could exceed the true distance. Band 0 is unconstrained
    // DTW and gets a whole-series envelope.
    const std::size_t radius = dtwBandHalfWidth(n, n, band_fraction) + 1;
    const Envelope envelope = computeEnvelope(query.span(), radius);

    DtwOptions options;
    options.bandFraction = band_fraction;

    // Compute all lower bounds first and visit candidates bound-first:
    // the best true distance is found early, so later candidates are
    // pruned by their bound alone.
    std::vector<std::pair<double, std::size_t>> order;
    std::vector<std::vector<double>> resampled(candidates.size());
    order.reserve(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        CM_ASSERT(!candidates[c].empty());
        resampled[c] = resampleLinear(candidates[c].values(), n);
        order.emplace_back(lbKeogh(envelope, resampled[c]), c);
    }
    std::sort(order.begin(), order.end());

    NearestResult result;
    result.distance = std::numeric_limits<double>::infinity();
    for (const auto &[bound, c] : order) {
        if (bound >= result.distance)
            break; // every remaining candidate is bounded out
        const double distance =
            dtwDistance(query.span(), resampled[c], options);
        ++result.dtwEvaluations;
        if (distance < result.distance) {
            result.distance = distance;
            result.index = c;
        }
    }
    return result;
}

void
zNormalize(std::vector<double> &values)
{
    if (values.empty())
        return;
    const double mu = stats::mean(values);
    double sigma = stats::stddev(values, false);
    // Constant-series carve-out. sigma is exactly 0 only when the
    // two-pass variance saw zero deviations; a constant series whose
    // mean does not round-trip in binary (all 0.1, say) instead
    // yields a tiny nonzero sigma that would amplify pure rounding
    // noise to unit scale. Relative spread below FP noise is treated
    // as constant, and a non-finite sigma (Inf/NaN inputs) must never
    // become a divisor.
    if (!(sigma > std::abs(mu) * 1e-12) || !std::isfinite(sigma))
        sigma = 1.0; // constant series normalizes to ~all zeros
    for (auto &v : values)
        v = (v - mu) / sigma;
}

} // namespace cminer::ts
