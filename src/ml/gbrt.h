/**
 * @file
 * Stochastic Gradient Boosted Regression Trees (Friedman 2002) — the
 * performance model of the paper's importance ranker (Section III-C).
 *
 * Squared-error boosting: F_0 is the target mean; each stage fits a
 * regression tree to the current residuals on a random row subsample and
 * adds it with shrinkage. Event importance follows Friedman's relative
 * influence (paper Eqs. 10-11): per-feature squared improvements summed
 * over each tree's splits, averaged over trees, normalized to 100%.
 */

#ifndef CMINER_ML_GBRT_H
#define CMINER_ML_GBRT_H

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset_view.h"
#include "ml/decision_tree.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cminer::ml {

/** SGBRT hyperparameters. */
struct GbrtParams
{
    std::size_t treeCount = 150;
    double learningRate = 0.1;
    /** Row subsample fraction per stage (the "stochastic" part). */
    double subsample = 0.4;
    TreeParams tree = {.maxDepth = 5,
                       .minSamplesLeaf = 3,
                       .featureFraction = 0.25};
};

/** One entry of a normalized importance ranking. */
struct FeatureImportance
{
    std::string feature;
    double importance = 0.0; ///< percent; all entries sum to 100
};

/**
 * Sort a ranking by descending importance with ties broken by ascending
 * feature name. Importance alone under-determines the order: equal
 * importances (duplicated events, all-zero rankings) would land in
 * whatever order the STL's unstable sort leaves them, differing across
 * implementations. The secondary key makes every ranking surface
 * bitwise-reproducible.
 */
void sortByImportance(std::vector<FeatureImportance> &ranking);

/** Stochastic gradient boosted regression tree ensemble. */
class Gbrt
{
  public:
    explicit Gbrt(GbrtParams params = {});

    /**
     * Fit the ensemble.
     *
     * @param data training data (a Dataset converts implicitly)
     * @param rng subsampling source (deterministic given the seed)
     */
    void fit(const DatasetView &data, cminer::util::Rng &rng);

    /** Predict one raw feature vector. */
    double predict(std::span<const double> features) const;

    /** predict() convenience for braced literals. */
    double predict(std::initializer_list<double> features) const
    {
        return predict(
            std::span<const double>(features.begin(), features.size()));
    }

    /** Predictions for every visible row of a dataset view. */
    std::vector<double> predictAll(const DatasetView &data) const;

    /**
     * predictRows() for `count` rows on the pool, in 256-row chunks
     * that each write their own slots of `out`, so the result is bit
     * for bit the same at any thread count. Callers feed the walk from
     * wherever their values already sit: value_of(feature, row) for
     * row < count.
     */
    template <typename ValueOf>
    void predictAll(std::size_t count, std::size_t width, ValueOf &&value_of,
                    std::span<double> out) const
    {
        CM_ASSERT(out.size() >= count);
        cminer::util::parallelFor(
            0, count, kRowBlock, [&](std::size_t lo, std::size_t hi) {
                predictRows(
                    hi - lo, width,
                    [&](std::size_t feature, std::size_t row) {
                        return value_of(feature, lo + row);
                    },
                    out.subspan(lo, hi - lo));
            });
    }

    /**
     * Predictions for `count` rows whose features come from
     * `value_of(feature, row)`, written to out[0..count). A row starts
     * at the baseline and adds each tree's shrunken leaf in tree order,
     * exactly as predict() does, so both agree bit for bit. Fatal when
     * `width`, the number of features value_of serves, is narrower
     * than the model; no feature read is checked after that.
     */
    template <typename ValueOf>
    void predictRows(std::size_t count, std::size_t width,
                     ValueOf &&value_of, std::span<double> out) const
    {
        CM_ASSERT(fitted_);
        CM_ASSERT(out.size() >= count);
        requireWidth(width);
        std::array<double, kRowBlock> leaves;
        for (std::size_t first = 0; first < count; first += kRowBlock) {
            const std::size_t rows = std::min(kRowBlock, count - first);
            const std::span<double> block = out.subspan(first, rows);
            std::fill(block.begin(), block.end(), baseline_);
            for (const RegressionTree &tree : trees_) {
                tree.leafValues(
                    rows,
                    [&](std::size_t feature, std::size_t row) {
                        return value_of(feature, first + row);
                    },
                    leaves);
                for (std::size_t r = 0; r < rows; ++r)
                    block[r] += params_.learningRate * leaves[r];
            }
        }
    }

    /**
     * Friedman relative influence per feature, normalized so the sum is
     * 100% (paper Eqs. 10-11), sorted descending.
     */
    std::vector<FeatureImportance> featureImportances() const;

    /** Number of fitted trees. */
    std::size_t treeCount() const { return trees_.size(); }

    /** True after fit(). */
    bool fitted() const { return fitted_; }

    /** Feature names captured at fit time, in model column order. */
    const std::vector<std::string> &featureNames() const
    {
        return featureNames_;
    }

    /** Stage shrinkage (the learning rate predictions multiply by). */
    double shrinkage() const { return params_.learningRate; }

    /**
     * Per-feature quantile bin upper edges of the FeatureBinner the
     * ensemble trained on — part of the checkpoint so a reloaded model
     * carries its own discretization.
     */
    const std::vector<std::vector<double>> &binEdges() const
    {
        return binEdges_;
    }

    /**
     * Append the fitted ensemble (baseline, shrinkage, feature names,
     * bin edges, trees) to a checkpoint writer. See model_io.h for the
     * file-level wrappers.
     */
    void serialize(cminer::util::BinaryWriter &out) const;

    /**
     * Read an ensemble written by serialize(). Every count is bounds-
     * checked by the reader and the tree graphs are validated; on
     * damage the reader latches a Status and an unfitted model is
     * returned — callers check `in.ok()`.
     */
    static Gbrt deserialize(cminer::util::BinaryReader &in);

  private:
    /**
     * Rows predictRows() takes through every tree at a time, and the
     * rows of one pool chunk of predictAll().
     */
    static constexpr std::size_t kRowBlock = 256;

    /** Fatal unless `width` covers every model feature. */
    void requireWidth(std::size_t width) const;

    GbrtParams params_;
    double baseline_ = 0.0;
    std::vector<RegressionTree> trees_;
    std::vector<std::string> featureNames_;
    std::vector<std::vector<double>> binEdges_;
    bool fitted_ = false;
};

} // namespace cminer::ml

#endif // CMINER_ML_GBRT_H
