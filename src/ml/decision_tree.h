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
     * of the leaf row i reaches, for i < count. An internal node's two
     * children sit side by side, so one step is arithmetic on the
     * node's `first` child: `at = first[at] + !(value_of(feature[at], i)
     * <= threshold[at])` (NaN goes right). A leaf's threshold is NaN
     * and its `first` is its own index minus one, so the step leaves a
     * row that reached it where it is. Rows advance eight at a time in
     * lockstep for exactly the tree's depth, its longest root-to-leaf
     * path; no step takes a data-dependent branch, and the eight rows'
     * loads are independent. Leaf values are read once, at the end.
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
    bool fitted() const { return !value_.empty(); }

    /**
     * Append the fitted structure (nodes + split records) to a
     * checkpoint writer. Hyperparameters are not part of the artifact;
     * a deserialized tree predicts and reports importances, it does
     * not refit.
     */
    void serialize(cminer::util::BinaryWriter &out) const;

    /**
     * Read a tree written by serialize(), validating the node graph:
     * child and feature indices are range-checked, children must point
     * forward, and every node but the root must have exactly one
     * parent, so the records form a tree in any order. Each split's
     * children take the next two free slots as the records are read,
     * which for preorder records is the layout fit() makes. On damage
     * the reader latches a Status naming the byte offset, the tree and
     * the node, and an empty tree is returned — callers check
     * `in.ok()`.
     *
     * @param in bounded checkpoint reader positioned at a tree
     * @param feature_count width of the feature space for validation
     * @param tree_index the tree's position in its model, for messages
     */
    static RegressionTree deserialize(cminer::util::BinaryReader &in,
                                      std::size_t feature_count,
                                      std::size_t tree_index);

  private:
    /** Rows one lockstep walk advances together. */
    static constexpr std::size_t kLanes = 8;

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
        const std::uint32_t *feature = feature_.data();
        const double *threshold = threshold_.data();
        const std::uint32_t *first_child = first_.data();
        std::uint32_t at[kLanes] = {};
        for (std::size_t step = 0; step < depth_; ++step) {
            for (std::size_t k = 0; k < lanes; ++k) {
                const std::uint32_t node = at[k];
                at[k] = first_child[node] +
                        !(value_of(feature[node], first + k) <=
                          threshold[node]);
            }
        }
        for (std::size_t k = 0; k < lanes; ++k)
            out[first + k] = value_[at[k]];
    }

    /** True when node `node` is a leaf: its first child is node - 1. */
    bool isLeaf(std::size_t node) const
    {
        return static_cast<std::uint32_t>(first_[node] + 1) == node;
    }

    /**
     * Drop every node and reserve room for `capacity`: the model
     * reader knows its node count, fit() does not.
     */
    void clearNodes(std::size_t capacity = 0);

    /** Append `count` leaf slots; returns the index of the first. */
    std::uint32_t appendLeaves(std::size_t count);

    /**
     * Make leaf `node` split on `feature` at `threshold`; its two
     * children are new adjacent leaf slots, left first.
     */
    void splitLeaf(std::uint32_t node, std::uint32_t feature,
                   double threshold);

    /** Recursively grow the subtree rooted at leaf slot `node`. */
    void grow(const DatasetView &data, const FeatureBinner &binner,
              std::span<const double> targets,
              std::vector<std::size_t> &rows, std::uint32_t node,
              std::size_t depth, cminer::util::Rng &rng);

    TreeParams params_;
    /**
     * The nodes, struct-of-arrays: split feature, raw-value threshold
     * (NaN for a leaf) and first child (left; right is first + 1; a
     * leaf's is its own index - 1, wrapping at the root) are what a
     * walk step reads. A node's value, the mean target of its rows, is
     * read once per row, at the leaf. 24 bytes per node.
     */
    std::vector<std::uint32_t> feature_;
    std::vector<double> threshold_;
    std::vector<std::uint32_t> first_;
    std::vector<double> value_;
    /** Longest root-to-leaf path, in steps (0 for a lone leaf). */
    std::size_t depth_ = 0;
    std::vector<SplitRecord> splits_;
};

} // namespace cminer::ml

#endif // CMINER_ML_DECISION_TREE_H
