#include "core/interaction.h"

#include <algorithm>

#include "ml/linear_regression.h"
#include "ml/metrics.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cminer::core {

using cminer::ml::Dataset;
using cminer::ml::DatasetView;
using cminer::ml::Gbrt;
using cminer::ml::LinearRegression;

namespace {

/**
 * The model's univariate response to one event: its prediction at each
 * sampled row with the event at its observed value and every other
 * event held at its mean. These are exactly a pair's "alone" probes
 * (the partner sits at its mean), so each event's response is probed
 * once and shared by every pair that names it.
 */
std::vector<double>
univariateResponse(const Gbrt &model, const DatasetView &data,
                   const std::vector<double> &means,
                   const std::vector<std::size_t> &rows, std::size_t event)
{
    std::vector<double> observed(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        observed[i] = data.value(rows[i], event);
    std::vector<double> response(rows.size());
    model.predictRows(
        rows.size(), means.size(),
        [&](std::size_t feature, std::size_t row) {
            return feature == event ? observed[row] : means[feature];
        },
        response);
    return response;
}

/**
 * Interaction intensity of one event pair (Eq. 12).
 *
 * Model predictions with all other events held at their means while the
 * pair walks through its observed values. The linear model is fit over
 * the pair's *univariate* model responses (each event moved alone:
 * `alone_a`, `alone_b`, one per sampled row), so additive — even
 * nonlinear — per-event effects are fully explainable and the residual
 * isolates genuine two-way interaction.
 *
 * Pure function of read-only inputs, safe and deterministic to
 * evaluate for many pairs concurrently.
 */
double
pairResidualVariance(const Gbrt &model, const DatasetView &data,
                     const std::vector<double> &means,
                     const std::vector<std::size_t> &rows,
                     const std::pair<std::string, std::string> &pair,
                     std::size_t idx_a, std::size_t idx_b,
                     const std::vector<double> &alone_a,
                     const std::vector<double> &alone_b)
{
    std::vector<double> observed_a(rows.size());
    std::vector<double> observed_b(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        observed_a[i] = data.value(rows[i], idx_a);
        observed_b[i] = data.value(rows[i], idx_b);
    }
    std::vector<double> oracle(rows.size());
    model.predictRows(
        rows.size(), means.size(),
        [&](std::size_t feature, std::size_t row) {
            return feature == idx_a   ? observed_a[row]
                   : feature == idx_b ? observed_b[row]
                                      : means[feature];
        },
        oracle);
    Dataset pair_data({pair.first, pair.second});
    for (std::size_t i = 0; i < rows.size(); ++i)
        pair_data.addRow({alone_a[i], alone_b[i]}, oracle[i]);

    // Linear model of the pair's combined effect; its residual variance
    // is the interaction intensity (Eq. 12).
    LinearRegression linear;
    linear.fit(pair_data);
    const auto linear_pred = linear.predictAll(pair_data);
    return ml::residualVariance(oracle, linear_pred);
}

} // namespace

InteractionRanker::InteractionRanker(InteractionOptions options)
    : options_(options)
{
    CM_ASSERT(options_.topEvents >= 2);
    CM_ASSERT(options_.maxSamples >= 8);
}

std::vector<PairInteraction>
InteractionResult::top(std::size_t n) const
{
    std::vector<PairInteraction> out;
    for (std::size_t i = 0; i < std::min(n, pairs.size()); ++i)
        out.push_back(pairs[i]);
    return out;
}

InteractionResult
InteractionRanker::rankPairs(
    const Gbrt &model, const DatasetView &data,
    const std::vector<std::pair<std::string, std::string>> &pairs) const
{
    CM_ASSERT(model.fitted());
    CM_ASSERT(data.rowCount() >= 8);

    // Resolve each pair to view features; every distinct event among
    // them gets its univariate response probed once, below.
    std::vector<std::pair<std::size_t, std::size_t>> features;
    features.reserve(pairs.size());
    std::vector<std::size_t> events;
    for (const auto &[first, second] : pairs) {
        if (first == second)
            cminer::util::fatal("InteractionRanker::rankPairs: pair (" +
                                first + ", " + second +
                                ") names one event twice");
        const std::size_t a = data.featureIndex(first);
        const std::size_t b = data.featureIndex(second);
        features.emplace_back(a, b);
        events.push_back(a);
        events.push_back(b);
    }
    std::sort(events.begin(), events.end());
    events.erase(std::unique(events.begin(), events.end()), events.end());

    cminer::util::Span span("interaction");
    span.number("pairs", static_cast<double>(pairs.size()));
    const auto means = data.featureMeans();

    // Stride-sample observation rows so every pair sees the same slice.
    const std::size_t stride =
        std::max<std::size_t>(1, data.rowCount() / options_.maxSamples);
    std::vector<std::size_t> rows;
    for (std::size_t r = 0; r < data.rowCount(); r += stride)
        rows.push_back(r);

    // Every probe is independent (the model and the dataset are only
    // read): responses land in per-event slots, variances in per-pair
    // slots, and the variances are reduced serially in pair order
    // below, so the normalization (Eq. 13) is bit-identical for any
    // thread count.
    std::vector<std::vector<double>> responses(data.featureCount());
    cminer::util::parallelFor(
        0, events.size(), 1,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t e = lo; e < hi; ++e)
                responses[events[e]] = univariateResponse(
                    model, data, means, rows, events[e]);
        });
    std::vector<double> variances(pairs.size(), 0.0);
    cminer::util::parallelFor(
        0, pairs.size(), 1,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t p = lo; p < hi; ++p) {
                const auto [a, b] = features[p];
                variances[p] = pairResidualVariance(
                    model, data, means, rows, pairs[p], a, b,
                    responses[a], responses[b]);
            }
        });

    InteractionResult result;
    double total_variance = 0.0;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        result.pairs.push_back(
            {pairs[p].first, pairs[p].second, variances[p], 0.0});
        total_variance += variances[p];
    }

    // Eq. 13: normalize across pairs.
    if (total_variance > 0.0) {
        for (auto &pair : result.pairs)
            pair.importancePercent =
                100.0 * pair.residualVariance / total_variance;
    }
    // Descending intensity; ties (e.g. an additive model where every
    // pair's residual variance is exactly zero) fall back to the pair
    // names, so the surface is bitwise-stable across STL
    // implementations and thread counts.
    std::sort(result.pairs.begin(), result.pairs.end(),
              [](const PairInteraction &a, const PairInteraction &b) {
                  if (a.importancePercent != b.importancePercent)
                      return a.importancePercent > b.importancePercent;
                  if (a.first != b.first)
                      return a.first < b.first;
                  return a.second < b.second;
              });
    cminer::util::count("interaction.pairs_ranked",
                        result.pairs.size());
    return result;
}

InteractionResult
InteractionRanker::rankTopEvents(const Gbrt &model,
                                 const DatasetView &data,
                                 const std::vector<std::string> &events)
    const
{
    std::vector<std::pair<std::string, std::string>> pairs;
    const std::size_t n = std::min(options_.topEvents, events.size());
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j)
            pairs.emplace_back(events[i], events[j]);
    }
    CM_ASSERT(!pairs.empty());
    return rankPairs(model, data, pairs);
}

} // namespace cminer::core
