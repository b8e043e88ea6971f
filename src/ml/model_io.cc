/**
 * @file
 * Serialization of the fitted tree ensemble, plus the file-level model
 * checkpoint wrappers. The member serialize()/deserialize() methods of
 * RegressionTree and Gbrt live here so the training code in gbrt.cc /
 * decision_tree.cc stays free of I/O concerns.
 */

#include "ml/model_io.h"

#include "util/string_util.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/decision_tree.h"
#include "util/binary_io.h"
#include "util/error.h"

namespace cminer::ml {

using cminer::util::BinaryReader;
using cminer::util::BinaryWriter;
using cminer::util::Status;
using cminer::util::StatusOr;

// --- RegressionTree -------------------------------------------------------

void
RegressionTree::serialize(BinaryWriter &out) const
{
    // Model files hold each tree's records in preorder: a split's left
    // child is the next record and its right child follows the left
    // subtree. A record keeps its leaf flag and 64-bit fields; a leaf
    // writes zeros for its feature, threshold and children. Children
    // sit after their parent in memory, so one backward pass sizes
    // every subtree.
    const std::size_t count = value_.size();
    std::vector<std::uint64_t> subtree(count, 1);
    for (std::size_t i = count; i-- > 0;)
        if (!isLeaf(i))
            subtree[i] += subtree[first_[i]] + subtree[first_[i] + 1];
    out.u64(count);
    // A preorder walk holds at most one pending node per level.
    std::vector<std::uint32_t> pending;
    pending.reserve(depth_ + 1);
    if (count > 0)
        pending.push_back(0);
    for (std::uint64_t record = 0; !pending.empty(); ++record) {
        const std::uint32_t node = pending.back();
        pending.pop_back();
        const bool leaf = isLeaf(node);
        const std::uint64_t left = record + 1;
        out.u8(leaf ? 1 : 0);
        out.f64(value_[node]);
        out.u64(leaf ? 0 : feature_[node]);
        out.f64(leaf ? 0.0 : threshold_[node]);
        out.u64(leaf ? 0 : left);
        out.u64(leaf ? 0 : left + subtree[first_[node]]);
        if (!leaf) {
            pending.push_back(first_[node] + 1);
            pending.push_back(first_[node]);
        }
    }
    out.u64(splits_.size());
    for (const SplitRecord &split : splits_) {
        out.u64(split.feature);
        out.f64(split.improvement);
    }
}

RegressionTree
RegressionTree::deserialize(BinaryReader &in, std::size_t feature_count,
                            std::size_t tree_index)
{
    RegressionTree tree;
    // One node is 1 + 8 + 8 + 8 + 8 + 8 bytes on disk.
    const std::uint64_t node_count = in.count(41);
    if (in.ok() && node_count >= std::numeric_limits<std::uint32_t>::max())
        in.fail(cminer::util::format(
            "tree %zu has %llu nodes, more than a 32-bit index reaches",
            tree_index, static_cast<unsigned long long>(node_count)));
    if (!in.ok())
        return RegressionTree();
    // Children come after their parent, so a node's slot and depth are
    // known by the time its record is read: each split hands its
    // children the next two free slots, left first. For the preorder
    // records every writer emits, that is the layout fit() makes.
    // Every node but the root must have exactly one parent.
    constexpr std::uint64_t none = std::numeric_limits<std::uint64_t>::max();
    struct Place
    {
        std::uint64_t parent = none;
        std::uint32_t slot = 0;
        std::uint32_t depth = 0;
    };
    std::vector<Place> place(node_count);
    tree.clearNodes(node_count);
    tree.appendLeaves(node_count);
    std::uint32_t next = 1;
    for (std::uint64_t i = 0; i < node_count && in.ok(); ++i) {
        const bool leaf = in.u8() != 0;
        const double value = in.f64();
        const std::size_t feature = in.u64();
        const double threshold = in.f64();
        const std::size_t left = in.u64();
        const std::size_t right = in.u64();
        if (!in.ok())
            break;
        const std::uint32_t slot = place[i].slot;
        tree.value_[slot] = value;
        if (leaf)
            continue;
        if (feature >= feature_count) {
            in.fail(cminer::util::format(
                "tree %zu node %llu splits on feature %zu of %zu",
                tree_index, static_cast<unsigned long long>(i), feature,
                feature_count));
            break;
        }
        // grow() appends children after their parent, so forward
        // pointers are an invariant, and every path ends at a leaf.
        if (left <= i || right <= i || left >= node_count ||
            right >= node_count) {
            in.fail(cminer::util::format(
                "tree %zu node %llu has out-of-order children "
                "(%zu, %zu of %llu nodes)",
                tree_index, static_cast<unsigned long long>(i), left,
                right, static_cast<unsigned long long>(node_count)));
            break;
        }
        for (const std::size_t child : {left, right}) {
            if (place[child].parent != none) {
                in.fail(cminer::util::format(
                    "tree %zu node %zu has two parents (nodes %llu and "
                    "%llu)",
                    tree_index, child,
                    static_cast<unsigned long long>(place[child].parent),
                    static_cast<unsigned long long>(i)));
                break;
            }
            place[child].parent = i;
            place[child].slot = next++;
            place[child].depth = place[i].depth + 1;
        }
        tree.feature_[slot] = static_cast<std::uint32_t>(feature);
        tree.threshold_[slot] = threshold;
        tree.first_[slot] = place[left].slot;
        tree.depth_ = std::max<std::size_t>(tree.depth_, place[left].depth);
    }
    for (std::uint64_t i = 1; i < node_count && in.ok(); ++i)
        if (place[i].parent == none)
            in.fail(cminer::util::format(
                "tree %zu node %llu has no parent", tree_index,
                static_cast<unsigned long long>(i)));

    const std::uint64_t split_count = in.count(16);
    tree.splits_.reserve(split_count);
    for (std::uint64_t i = 0; i < split_count && in.ok(); ++i) {
        SplitRecord split;
        split.feature = in.u64();
        split.improvement = in.f64();
        if (in.ok() && split.feature >= feature_count) {
            in.fail(cminer::util::format(
                "tree %zu split record %llu names feature %zu of %zu",
                tree_index, static_cast<unsigned long long>(i),
                split.feature, feature_count));
            break;
        }
        tree.splits_.push_back(split);
    }
    if (!in.ok() || node_count == 0)
        return RegressionTree();
    return tree;
}

// --- Gbrt -----------------------------------------------------------------

void
Gbrt::serialize(BinaryWriter &out) const
{
    out.u8(fitted_ ? 1 : 0);
    out.f64(baseline_);
    out.f64(params_.learningRate);
    out.u64(featureNames_.size());
    for (const auto &name : featureNames_)
        out.str(name);
    out.u64(binEdges_.size());
    for (const auto &edges : binEdges_) {
        out.u64(edges.size());
        out.f64Span(edges);
    }
    out.u64(trees_.size());
    for (const auto &tree : trees_)
        tree.serialize(out);
}

Gbrt
Gbrt::deserialize(BinaryReader &in)
{
    Gbrt model;
    const bool fitted = in.u8() != 0;
    model.baseline_ = in.f64();
    model.params_.learningRate = in.f64();
    if (in.ok() && (!std::isfinite(model.params_.learningRate) ||
                    model.params_.learningRate <= 0.0 ||
                    model.params_.learningRate > 1.0)) {
        in.fail("model shrinkage is outside (0, 1]");
        return Gbrt();
    }

    // A feature record is at least its 8-byte name length.
    const std::uint64_t feature_count = in.count(8);
    model.featureNames_.reserve(feature_count);
    for (std::uint64_t f = 0; f < feature_count && in.ok(); ++f) {
        std::string name = in.str();
        if (in.ok() && name.empty()) {
            in.fail("model feature name is empty");
            break;
        }
        model.featureNames_.push_back(std::move(name));
    }

    const std::uint64_t edge_lists = in.count(8);
    if (in.ok() && edge_lists != feature_count) {
        in.fail(cminer::util::format(
            "model has %llu bin-edge lists for %llu features",
            static_cast<unsigned long long>(edge_lists),
            static_cast<unsigned long long>(feature_count)));
        return Gbrt();
    }
    model.binEdges_.reserve(edge_lists);
    for (std::uint64_t f = 0; f < edge_lists && in.ok(); ++f) {
        const std::uint64_t edges = in.count(8);
        model.binEdges_.push_back(in.f64Vec(edges));
    }

    // A serialized tree is at least its two count fields.
    const std::uint64_t tree_count = in.count(16);
    model.trees_.reserve(tree_count);
    for (std::uint64_t t = 0; t < tree_count && in.ok(); ++t) {
        model.trees_.push_back(RegressionTree::deserialize(
            in, model.featureNames_.size(), t));
        if (in.ok() && !model.trees_.back().fitted())
            in.fail(cminer::util::format(
                "model tree %llu has no nodes",
                static_cast<unsigned long long>(t)));
    }
    if (!in.ok())
        return Gbrt();
    model.fitted_ = fitted;
    return model;
}

// --- file wrappers --------------------------------------------------------

Status
saveModel(const Gbrt &model, const std::string &path)
{
    if (!model.fitted())
        return Status::dataError("refusing to checkpoint an unfitted "
                                 "model");
    BinaryWriter out(gbrt_artifact_kind, gbrt_artifact_version);
    out.beginSection(model_section_name);
    model.serialize(out);
    out.endSection();
    Status status = out.writeFile(path);
    if (!status.ok())
        return status.withContext("save model " + path);
    return status;
}

StatusOr<Gbrt>
loadModel(const std::string &path)
{
    auto opened = BinaryReader::open(path, gbrt_artifact_kind);
    // Every open error already names the path.
    if (!opened.ok())
        return opened.status().withContext("load model");
    BinaryReader in = std::move(opened).value();
    if (in.artifactVersion() != gbrt_artifact_version)
        return in
            .fail(cminer::util::format(
                "unsupported model version %u (this build reads %u)",
                in.artifactVersion(), gbrt_artifact_version))
            .withContext("load model " + path);

    Gbrt model;
    bool seen_model = false;
    for (std::uint64_t s = 0; s < in.sectionCount() && in.ok(); ++s) {
        const std::string section = in.beginSection();
        if (!in.ok())
            break;
        if (section == model_section_name) {
            model = Gbrt::deserialize(in);
            seen_model = in.ok();
        }
        // Unknown sections from newer writers are skipped by size.
        in.endSection();
    }
    if (!in.ok())
        return in.status().withContext("load model " + path);
    if (!seen_model)
        return Status::dataError("no '" +
                                 std::string(model_section_name) +
                                 "' section")
            .withContext("load model " + path);
    return model;
}

} // namespace cminer::ml
