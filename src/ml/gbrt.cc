#include "ml/gbrt.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cminer::ml {

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

    const FeatureBinner binner(data, params_.tree.maxBins);
    binEdges_.assign(featureNames_.size(), {});
    for (std::size_t f = 0; f < featureNames_.size(); ++f) {
        binEdges_[f].reserve(binner.binCount(f));
        for (std::size_t b = 0; b < binner.binCount(f); ++b)
            binEdges_[f].push_back(binner.upperEdge(f, b));
    }

    // View feature -> its base column, resolved once for the update.
    std::vector<std::span<const double>> columns;
    columns.reserve(data.featureCount());
    for (std::size_t f = 0; f < data.featureCount(); ++f)
        columns.push_back(data.base().column(data.baseColumn(f)));

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
            0, data.rowCount(), 512,
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t r = lo; r < hi; ++r) {
                    const std::size_t base_row = data.baseRow(r);
                    predictions[r] +=
                        params_.learningRate *
                        tree.walk([&](std::size_t feature) {
                            return columns[feature][base_row];
                        });
                }
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
    CM_ASSERT(fitted_);
    double y = baseline_;
    for (const auto &tree : trees_)
        y += params_.learningRate * tree.predict(features);
    return y;
}

std::vector<double>
Gbrt::predictAll(const DatasetView &data) const
{
    CM_ASSERT(fitted_);
    std::vector<double> out(data.rowCount(), 0.0);
    // Row-major accumulation in the same tree order as predict() (so the
    // two agree bitwise), with the fitted check hoisted out of the loop
    // and one gather buffer reused per chunk.
    cminer::util::parallelFor(
        0, data.rowCount(), 256,
        [&](std::size_t lo, std::size_t hi) {
            std::vector<double> row(data.featureCount());
            for (std::size_t r = lo; r < hi; ++r) {
                data.gatherRow(r, row);
                double y = baseline_;
                for (const auto &tree : trees_)
                    y += params_.learningRate * tree.predict(row);
                out[r] = y;
            }
        });
    return out;
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
