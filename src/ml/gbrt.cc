#include "ml/gbrt.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cminer::ml {

namespace {

/** Rows per chunk of the boosting update. */
constexpr std::size_t kUpdateGrain = 512;

/** Histogram bins per feature of the ensemble's shared binner. */
constexpr std::size_t kBinsPerFeature = 32;

/** Each view feature's base column, indexed by base row. */
std::vector<const double *>
baseColumns(const DatasetView &data)
{
    std::vector<const double *> columns(data.featureCount());
    for (std::size_t f = 0; f < columns.size(); ++f)
        columns[f] = data.base().column(data.baseColumn(f)).data();
    return columns;
}

} // namespace

void
sortByImportance(std::vector<FeatureImportance> &ranking)
{
    std::sort(ranking.begin(), ranking.end(),
              [](const FeatureImportance &a, const FeatureImportance &b) {
                  if (a.importance != b.importance)
                      return a.importance > b.importance;
                  return a.feature < b.feature;
              });
}

Gbrt::Gbrt(GbrtParams params)
    : params_(params)
{
    CM_ASSERT(params_.treeCount >= 1);
    CM_ASSERT(params_.learningRate > 0.0 && params_.learningRate <= 1.0);
    CM_ASSERT(params_.subsample > 0.0 && params_.subsample <= 1.0);
}

void
Gbrt::fit(const DatasetView &data, cminer::util::Rng &rng)
{
    CM_ASSERT(data.rowCount() >= 2 * params_.tree.minSamplesLeaf);
    featureNames_ = data.featureNames();
    trees_.clear();

    const FeatureBinner binner(data, kBinsPerFeature);
    binEdges_.assign(featureNames_.size(), {});
    for (std::size_t f = 0; f < featureNames_.size(); ++f) {
        binEdges_[f].reserve(binner.binCount(f));
        for (std::size_t b = 0; b < binner.binCount(f); ++b)
            binEdges_[f].push_back(binner.upperEdge(f, b));
    }

    const std::vector<const double *> columns = baseColumns(data);

    const std::vector<double> targets = data.targets();
    baseline_ = stats::mean(targets);
    std::vector<double> predictions(data.rowCount(), baseline_);
    std::vector<double> residuals(data.rowCount(), 0.0);

    const std::size_t sample_size = std::max<std::size_t>(
        2 * params_.tree.minSamplesLeaf,
        static_cast<std::size_t>(params_.subsample *
                                 static_cast<double>(data.rowCount())));

    // Split-scan time is the fit's hot section; meter it only when a
    // metrics registry is installed so the steady-clock reads cost
    // nothing otherwise.
    const bool metered = cminer::util::globalMetrics() != nullptr;
    cminer::util::SteadyClock clock;
    double scan_ms = 0.0;

    for (std::size_t stage = 0; stage < params_.treeCount; ++stage) {
        for (std::size_t r = 0; r < data.rowCount(); ++r)
            residuals[r] = targets[r] - predictions[r];

        const std::vector<std::size_t> rows =
            rng.sampleIndices(data.rowCount(),
                              std::min(sample_size, data.rowCount()));

        RegressionTree tree(params_.tree);
        const double t0 = metered ? clock.nowMs() : 0.0;
        tree.fit(data, binner, residuals, rows, rng);
        if (metered)
            scan_ms += clock.nowMs() - t0;
        if (tree.splits().empty()) {
            // Residuals have no structure left; further stages would all
            // be stumps predicting ~0.
            break;
        }

        // Each row's update reads only the new tree and writes its own
        // slot, so chunked execution is bit-identical to the serial loop.
        // The tree walks the base columns in place: a row costs the few
        // cells on its root-to-leaf path, not a gather of every feature.
        cminer::util::parallelFor(
            0, data.rowCount(), kUpdateGrain,
            [&](std::size_t lo, std::size_t hi) {
                std::array<double, kUpdateGrain> leaves;
                tree.leafValues(
                    hi - lo,
                    [&](std::size_t feature, std::size_t row) {
                        return columns[feature][data.baseRow(lo + row)];
                    },
                    leaves);
                for (std::size_t r = lo; r < hi; ++r)
                    predictions[r] += params_.learningRate * leaves[r - lo];
            });
        trees_.push_back(std::move(tree));
    }
    fitted_ = true;
    cminer::util::count("gbrt.fits");
    cminer::util::count("gbrt.trees_fit", trees_.size());
    if (metered)
        cminer::util::recordDuration("gbrt.split_scan_ms", scan_ms);
}

double
Gbrt::predict(std::span<const double> features) const
{
    double y = 0.0;
    predictRows(
        1, features.size(),
        [features](std::size_t feature, std::size_t) {
            return features[feature];
        },
        std::span<double>(&y, 1));
    return y;
}

std::vector<double>
Gbrt::predictAll(const DatasetView &data) const
{
    const std::vector<const double *> columns = baseColumns(data);
    std::vector<double> out(data.rowCount());
    predictAll(
        out.size(), columns.size(),
        [&](std::size_t feature, std::size_t row) {
            return columns[feature][data.baseRow(row)];
        },
        out);
    return out;
}

void
Gbrt::requireWidth(std::size_t width) const
{
    if (width < featureNames_.size())
        cminer::util::fatal(cminer::util::format(
            "Gbrt: rows hold %zu features, the model reads %zu", width,
            featureNames_.size()));
}

std::vector<FeatureImportance>
Gbrt::featureImportances() const
{
    CM_ASSERT(fitted_);
    std::vector<double> influence(featureNames_.size(), 0.0);
    for (const auto &tree : trees_) {
        for (const auto &split : tree.splits())
            influence[split.feature] += split.improvement;
    }
    if (!trees_.empty()) {
        for (auto &v : influence)
            v /= static_cast<double>(trees_.size());
    }

    double total = 0.0;
    for (double v : influence)
        total += v;

    std::vector<FeatureImportance> ranking;
    ranking.reserve(featureNames_.size());
    for (std::size_t f = 0; f < featureNames_.size(); ++f) {
        FeatureImportance fi;
        fi.feature = featureNames_[f];
        fi.importance = total > 0.0 ? 100.0 * influence[f] / total : 0.0;
        ranking.push_back(std::move(fi));
    }
    sortByImportance(ranking);
    return ranking;
}

} // namespace cminer::ml
