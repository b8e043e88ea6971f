/**
 * @file
 * Histogram-based regression trees — the weak learner inside SGBRT.
 *
 * Split quality is the squared-error reduction of the split; per Friedman
 * (2003), accumulating these improvements per splitting feature across an
 * ensemble yields the event-importance measure of the paper's Eqs. 10-11.
 * Features are pre-discretized into quantile bins (FeatureBinner) so each
 * node's split search is one pass over its rows plus one pass over bins.
 */

#ifndef CMINER_ML_DECISION_TREE_H
#define CMINER_ML_DECISION_TREE_H

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset_view.h"
#include "util/error.h"
#include "util/rng.h"

namespace cminer::util {
class BinaryWriter;
class BinaryReader;
} // namespace cminer::util

namespace cminer::ml {

/** Hyperparameters of one regression tree. */
struct TreeParams
{
    std::size_t maxDepth = 4;
    std::size_t minSamplesLeaf = 5;
    /** Fraction of features examined per node, in (0, 1]. */
    double featureFraction = 1.0;
    /** Minimum squared-error reduction to accept a split. */
    double minImprovement = 1e-12;
    /** Maximum histogram bins per feature. */
    std::size_t maxBins = 32;
};

/**
 * Quantile discretization of a dataset's features, shared by all trees of
 * an ensemble.
 */
class FeatureBinner
{
  public:
    /**
     * @param data dataset view to discretize (rows/columns as visible)
     * @param max_bins bins per feature (2..255)
     */
    FeatureBinner(const DatasetView &data, std::size_t max_bins);

    /** Number of features. */
    std::size_t featureCount() const { return edges_.size(); }

    /** Number of rows. */
    std::size_t rowCount() const { return rowCount_; }

    /** Number of bins for a feature (may be < max for ties). */
    std::size_t binCount(std::size_t feature) const;

    /**
     * One feature's whole bin column as a contiguous span — the split
     * scan's hot path walks this directly.
     */
    std::span<const std::uint8_t> binColumn(std::size_t feature) const;

    /**
     * Raw-value threshold for "bin <= b goes left": the upper edge of
     * bin b. Nodes store this so prediction works on raw features.
     */
    double upperEdge(std::size_t feature, std::size_t bin) const;

  private:
    std::size_t rowCount_ = 0;
    /** edges_[f][b] = upper edge of bin b for feature f. */
    std::vector<std::vector<double>> edges_;
    /** bins_[f][r] = bin of row r on feature f (column-major). */
    std::vector<std::vector<std::uint8_t>> bins_;
};

/** One recorded split, for Friedman importance accounting. */
struct SplitRecord
{
    std::size_t feature = 0;
    double improvement = 0.0; ///< squared-error reduction of the split
};

/**
 * A fitted regression tree. Trains on (dataset rows, external targets) so
 * a boosting loop can pass residuals as targets.
 */
class RegressionTree
{
  public:
    explicit RegressionTree(TreeParams params = {});

    /**
     * Fit on a subset of rows.
     *
     * @param data feature source (row indices are view positions)
     * @param binner shared discretization of `data`
     * @param targets regression targets, one per view row
     * @param rows view-row indices to train on (stochastic subsample)
     * @param rng feature-subsampling source
     */
    void fit(const DatasetView &data, const FeatureBinner &binner,
             std::span<const double> targets,
             std::span<const std::size_t> rows, cminer::util::Rng &rng);

    /** Predict one raw feature vector. */
    double predict(std::span<const double> features) const;

    /** predict() convenience for braced literals. */
    double predict(std::initializer_list<double> features) const
    {
        return predict(
            std::span<const double>(features.begin(), features.size()));
    }

    /**
     * The one tree walk every prediction takes: out[i] becomes the value
     * of the leaf row i reaches, for i < count. At each node a row reads
     * `value_of(feature, i)` and moves to `child[!(value <= threshold)]`
     * (NaN goes right). Rows advance eight at a time in lockstep for
     * exactly the tree's depth, its longest root-to-leaf path; a leaf's
     * children are itself, so a row that reaches a shallow leaf stays
     * there. No step takes a data-dependent branch, and the eight rows'
     * loads are independent.
     */
    template <typename ValueOf>
    void leafValues(std::size_t count, ValueOf &&value_of,
                    std::span<double> out) const
    {
        CM_ASSERT(fitted());
        CM_ASSERT(out.size() >= count);
        std::size_t first = 0;
        for (; first + kLanes <= count; first += kLanes)
            walkLanes(first, kLanes, value_of, out);
        if (first < count)
            walkLanes(first, count - first, value_of, out);
    }

    /** All splits made while fitting (for importance accounting). */
    const std::vector<SplitRecord> &splits() const { return splits_; }

    /** Number of leaves (diagnostics). */
    std::size_t leafCount() const;

    /** True after fit(). */
    bool fitted() const { return !nodes_.empty(); }

    /**
     * Append the fitted structure (nodes + split records) to a
     * checkpoint writer. Hyperparameters are not part of the artifact;
     * a deserialized tree predicts and reports importances, it does
     * not refit.
     */
    void serialize(cminer::util::BinaryWriter &out) const;

    /**
     * Read a tree written by serialize(), validating the node graph:
     * child and feature indices are range-checked, and children must
     * point forward, so one forward pass finds the longest path — the
     * depth the walk steps. On damage the reader latches a Status
     * naming the byte offset and an empty tree is returned — callers
     * check `in.ok()`.
     *
     * @param in bounded checkpoint reader positioned at a tree
     * @param feature_count width of the feature space for validation
     */
    static RegressionTree deserialize(cminer::util::BinaryReader &in,
                                      std::size_t feature_count);

  private:
    /** Rows one lockstep walk advances together. */
    static constexpr std::size_t kLanes = 8;

    /**
     * One node, 32 bytes. A leaf's children are its own index, so the
     * walk needs no leaf flag; its feature and threshold are 0.
     */
    struct Node
    {
        double threshold = 0.0;      ///< raw-value split threshold
        double value = 0.0;          ///< mean target of the node's rows
        std::uint32_t feature = 0;   ///< split feature
        std::uint32_t child[2] = {}; ///< {<= threshold, > threshold}
    };

    /**
     * Rows [first, first + lanes) of leafValues(); lanes <= kLanes.
     * Full blocks inline it with the constant kLanes: a runtime lane
     * count for every block ran BM_GbrtPredictAll 4-10% slower.
     */
    template <typename ValueOf>
    [[gnu::always_inline]] void walkLanes(std::size_t first,
                                          std::size_t lanes,
                                          ValueOf &value_of,
                                          std::span<double> out) const
    {
        const Node *nodes = nodes_.data();
        std::uint32_t at[kLanes] = {};
        for (std::size_t step = 0; step < depth_; ++step) {
            for (std::size_t k = 0; k < lanes; ++k) {
                const Node &node = nodes[at[k]];
                at[k] = node.child[!(value_of(node.feature, first + k) <=
                                     node.threshold)];
            }
        }
        for (std::size_t k = 0; k < lanes; ++k)
            out[first + k] = nodes[at[k]].value;
    }

    /** Recursively grow the tree; returns the new node's index. */
    std::size_t grow(const DatasetView &data, const FeatureBinner &binner,
                     std::span<const double> targets,
                     std::vector<std::size_t> &rows, std::size_t depth,
                     cminer::util::Rng &rng);

    TreeParams params_;
    std::vector<Node> nodes_;
    /** Longest root-to-leaf path, in steps (0 for a lone leaf). */
    std::size_t depth_ = 0;
    std::vector<SplitRecord> splits_;
};

} // namespace cminer::ml

#endif // CMINER_ML_DECISION_TREE_H
