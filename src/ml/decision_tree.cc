#include "ml/decision_tree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>

#include "simd/simd.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace cminer::ml {

namespace {

/** Histogram slots per split scan: FeatureBinner caps bins at 255. */
constexpr std::size_t kMaxHistogramBins = 256;

/** Minimum squared-error reduction to accept a split. */
constexpr double kMinImprovement = 1e-12;

/** Winning (improvement, bin) of one candidate feature's split scan. */
struct CandidateBest
{
    double improvement = 0.0;
    std::size_t bin = 0;
    bool valid = false;
};

/**
 * Best split of one feature over the node's rows via per-bin histograms.
 *
 * Depends only on this feature's bins plus the node aggregates, so the
 * result is bitwise identical whether candidates are scanned serially or
 * concurrently.
 */
CandidateBest
scanCandidate(const FeatureBinner &binner, std::size_t feature,
              std::span<const double> targets,
              const std::vector<std::size_t> &rows, double sum,
              double parent_score, const TreeParams &params)
{
    CandidateBest best;
    best.improvement = kMinImprovement;
    const std::size_t bins = binner.binCount(feature);
    if (bins < 2)
        return best;
    CM_ASSERT(bins <= kMaxHistogramBins);
    // Fixed stack histograms: this runs once per candidate per node, so
    // heap vectors here were two allocations in the fit's hottest loop.
    std::array<double, kMaxHistogramBins> sum_slots;
    std::array<std::size_t, kMaxHistogramBins> count_slots;
    const std::span<double> bin_sum(sum_slots.data(), bins);
    const std::span<std::size_t> bin_count(count_slots.data(), bins);
    std::fill(bin_sum.begin(), bin_sum.end(), 0.0);
    std::fill(bin_count.begin(), bin_count.end(), std::size_t{0});
    // Per-bin sums accumulate in row order. The fill is scatter-bound;
    // wide variants measured slower (DESIGN.md §13).
    const std::span<const std::uint8_t> bin_col =
        binner.binColumn(feature);
    for (std::size_t r : rows) {
        const std::uint8_t b = bin_col[r];
        bin_sum[b] += targets[r];
        ++bin_count[b];
    }
    double left_sum = 0.0;
    std::size_t left_count = 0;
    for (std::size_t b = 0; b + 1 < bins; ++b) {
        left_sum += bin_sum[b];
        left_count += bin_count[b];
        const std::size_t right_count = rows.size() - left_count;
        if (left_count < params.minSamplesLeaf ||
            right_count < params.minSamplesLeaf)
            continue;
        const double right_sum = sum - left_sum;
        const double improvement =
            left_sum * left_sum / static_cast<double>(left_count) +
            right_sum * right_sum / static_cast<double>(right_count) -
            parent_score;
        if (improvement > best.improvement) {
            best.improvement = improvement;
            best.bin = b;
            best.valid = true;
        }
    }
    return best;
}

} // namespace

FeatureBinner::FeatureBinner(const DatasetView &data, std::size_t max_bins)
    : rowCount_(data.rowCount())
{
    CM_ASSERT(max_bins >= 2 && max_bins <= 255);
    const std::size_t features = data.featureCount();
    edges_.resize(features);
    bins_.resize(features);

    std::vector<double> values;
    for (std::size_t f = 0; f < features; ++f) {
        data.gatherColumn(f, values);
        std::vector<double> sorted = values;
        std::sort(sorted.begin(), sorted.end());

        // Quantile edges; deduplicate so constant stretches collapse.
        std::vector<double> edges;
        for (std::size_t b = 1; b < max_bins; ++b) {
            const double rank =
                static_cast<double>(b) / static_cast<double>(max_bins);
            const std::size_t idx = std::min(
                sorted.size() - 1,
                static_cast<std::size_t>(
                    rank * static_cast<double>(sorted.size())));
            const double edge = sorted[idx];
            if (edges.empty() || edge > edges.back())
                edges.push_back(edge);
        }
        // Final catch-all edge above the max (not needed when the last
        // quantile edge already equals the max, e.g. constant features).
        const double top = sorted.back();
        if (edges.empty() || top > edges.back())
            edges.push_back(std::nextafter(
                top, std::numeric_limits<double>::infinity()));
        edges_[f] = std::move(edges);

        bins_[f].resize(values.size());
        simd::lowerBoundBins(values, edges_[f], bins_[f]);
    }
}

std::size_t
FeatureBinner::binCount(std::size_t feature) const
{
    CM_ASSERT(feature < edges_.size());
    return edges_[feature].size();
}

std::span<const std::uint8_t>
FeatureBinner::binColumn(std::size_t feature) const
{
    if (feature >= bins_.size()) {
        cminer::util::fatal(
            "FeatureBinner::binColumn: feature index " +
            std::to_string(feature) + " out of range (binner holds " +
            std::to_string(bins_.size()) + " features)");
    }
    return bins_[feature];
}

double
FeatureBinner::upperEdge(std::size_t feature, std::size_t bin) const
{
    CM_ASSERT(feature < edges_.size());
    CM_ASSERT(bin < edges_[feature].size());
    return edges_[feature][bin];
}

RegressionTree::RegressionTree(TreeParams params)
    : params_(params)
{
    CM_ASSERT(params_.maxDepth >= 1);
    CM_ASSERT(params_.minSamplesLeaf >= 1);
    CM_ASSERT(params_.featureFraction > 0.0 &&
              params_.featureFraction <= 1.0);
}

void
RegressionTree::fit(const DatasetView &data, const FeatureBinner &binner,
                    std::span<const double> targets,
                    std::span<const std::size_t> rows,
                    cminer::util::Rng &rng)
{
    CM_ASSERT(targets.size() == data.rowCount());
    CM_ASSERT(!rows.empty());
    CM_ASSERT(binner.rowCount() == data.rowCount());
    clearNodes();
    depth_ = 0;
    splits_.clear();
    std::vector<std::size_t> row_vec(rows.begin(), rows.end());
    grow(data, binner, targets, row_vec, appendLeaves(1), 0, rng);
}

void
RegressionTree::clearNodes(std::size_t capacity)
{
    feature_.clear();
    threshold_.clear();
    first_.clear();
    value_.clear();
    feature_.reserve(capacity);
    threshold_.reserve(capacity);
    first_.reserve(capacity);
    value_.reserve(capacity);
}

std::uint32_t
RegressionTree::appendLeaves(std::size_t count)
{
    const std::size_t node = value_.size();
    CM_ASSERT(node + count < std::numeric_limits<std::uint32_t>::max());
    for (std::size_t i = node; i < node + count; ++i) {
        feature_.push_back(0);
        threshold_.push_back(std::numeric_limits<double>::quiet_NaN());
        first_.push_back(static_cast<std::uint32_t>(i - 1));
        value_.push_back(0.0);
    }
    return static_cast<std::uint32_t>(node);
}

void
RegressionTree::splitLeaf(std::uint32_t node, std::uint32_t feature,
                          double threshold)
{
    CM_ASSERT(isLeaf(node));
    first_[node] = appendLeaves(2);
    feature_[node] = feature;
    threshold_[node] = threshold;
}

void
RegressionTree::grow(const DatasetView &data, const FeatureBinner &binner,
                     std::span<const double> targets,
                     std::vector<std::size_t> &rows, std::uint32_t node,
                     std::size_t depth, cminer::util::Rng &rng)
{
    depth_ = std::max(depth_, depth);

    double sum = 0.0;
    for (std::size_t r : rows)
        sum += targets[r];
    const double count = static_cast<double>(rows.size());
    value_[node] = sum / count;

    const bool can_split = depth < params_.maxDepth &&
                           rows.size() >= 2 * params_.minSamplesLeaf;
    if (!can_split)
        return;

    // Feature subsample for this node.
    const std::size_t features = data.featureCount();
    std::size_t take = static_cast<std::size_t>(
        std::ceil(params_.featureFraction *
                  static_cast<double>(features)));
    take = std::max<std::size_t>(1, std::min(take, features));
    std::vector<std::size_t> candidates =
        rng.sampleIndices(features, take);

    // Best split over candidate features via per-bin histograms. Each
    // candidate scan is independent; the winner is reduced serially in
    // candidate order (strict >, first wins ties) so the selection is
    // bit-identical to the serial loop for any thread count. Small nodes
    // stay serial: the scan is cheaper than the fork.
    const double parent_score = sum * sum / count;
    std::vector<CandidateBest> bests(candidates.size());
    const bool parallel_scan =
        candidates.size() >= 4 && rows.size() * candidates.size() >= 8192;
    if (parallel_scan) {
        cminer::util::parallelFor(
            0, candidates.size(), 1,
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    bests[i] = scanCandidate(binner, candidates[i],
                                             targets, rows, sum,
                                             parent_score, params_);
            });
    } else {
        for (std::size_t i = 0; i < candidates.size(); ++i)
            bests[i] = scanCandidate(binner, candidates[i], targets,
                                     rows, sum, parent_score, params_);
    }

    double best_improvement = kMinImprovement;
    std::size_t best_feature = 0;
    std::size_t best_bin = 0;
    bool found = false;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (bests[i].valid && bests[i].improvement > best_improvement) {
            best_improvement = bests[i].improvement;
            best_feature = candidates[i];
            best_bin = bests[i].bin;
            found = true;
        }
    }

    if (!found)
        return; // no acceptable split: stay a leaf

    // Partition rows by the winning split.
    const std::span<const std::uint8_t> best_bins =
        binner.binColumn(best_feature);
    std::vector<std::size_t> left_rows;
    std::vector<std::size_t> right_rows;
    left_rows.reserve(rows.size());
    right_rows.reserve(rows.size());
    for (std::size_t r : rows) {
        if (best_bins[r] <= best_bin)
            left_rows.push_back(r);
        else
            right_rows.push_back(r);
    }
    CM_ASSERT(!left_rows.empty() && !right_rows.empty());
    rows.clear();
    rows.shrink_to_fit();

    splits_.push_back({best_feature, best_improvement});
    splitLeaf(node, static_cast<std::uint32_t>(best_feature),
              binner.upperEdge(best_feature, best_bin));
    const std::uint32_t left = first_[node];
    grow(data, binner, targets, left_rows, left, depth + 1, rng);
    grow(data, binner, targets, right_rows, left + 1, depth + 1, rng);
}

double
RegressionTree::predict(std::span<const double> features) const
{
    double leaf = 0.0;
    leafValues(
        1,
        [features](std::size_t feature, std::size_t) {
            CM_ASSERT(feature < features.size());
            return features[feature];
        },
        std::span<double>(&leaf, 1));
    return leaf;
}

std::size_t
RegressionTree::leafCount() const
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < value_.size(); ++i)
        count += isLeaf(i);
    return count;
}

} // namespace cminer::ml
