/**
 * @file
 * Lifetime and aliasing tests for the columnar data plane: DatasetView
 * must borrow (never copy) its base Dataset's storage, compose row and
 * column subsets, observe in-place mutation of the base, and agree
 * bitwise with the materialized copies it replaced — including under
 * concurrent readers. These run under the ml and concurrency ctest
 * labels so the sanitizer configurations cover them.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ml/cv.h"
#include "ml/dataset.h"
#include "ml/dataset_view.h"
#include "ml/gbrt.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace cminer::ml;
using cminer::util::FatalError;
using cminer::util::Rng;

Dataset
smallDataset()
{
    Dataset data({"a", "b", "c"});
    data.addRow({1.0, 10.0, 100.0}, 0.5);
    data.addRow({2.0, 20.0, 200.0}, 1.5);
    data.addRow({3.0, 30.0, 300.0}, 2.5);
    data.addRow({4.0, 40.0, 400.0}, 3.5);
    return data;
}

Dataset
syntheticDataset(std::size_t rows, std::size_t features,
                 std::uint64_t seed)
{
    std::vector<std::string> names;
    for (std::size_t f = 0; f < features; ++f)
        names.push_back("e" + std::to_string(f));
    Dataset data(std::move(names));
    Rng rng(seed);
    for (std::size_t r = 0; r < rows; ++r) {
        std::vector<double> row(features);
        double target = 0.0;
        for (std::size_t f = 0; f < features; ++f) {
            row[f] = rng.uniform(0.0, 10.0);
            target += (f % 2 == 0 ? 1.0 : -0.5) * row[f];
        }
        data.addRow(row, target + rng.gaussian(0.0, 0.1));
    }
    return data;
}

// --- Dataset: columnar storage and the name index ----------------------

TEST(Dataset, FeatureIndexIsMapBacked)
{
    Dataset data({"x", "y", "z"});
    EXPECT_EQ(data.featureIndex("x"), 0u);
    EXPECT_EQ(data.featureIndex("z"), 2u);
    EXPECT_TRUE(data.hasFeature("y"));
    EXPECT_FALSE(data.hasFeature("w"));
    EXPECT_THROW(data.featureIndex("w"), FatalError);
}

TEST(Dataset, DuplicateAndEmptyNamesRejected)
{
    EXPECT_THROW(Dataset({"dup", "other", "dup"}), FatalError);
    EXPECT_THROW(Dataset({"ok", ""}), FatalError);
    EXPECT_THROW(
        Dataset::fromColumns({"dup", "dup"}, {{1.0}, {2.0}}, {0.0}),
        FatalError);
}

TEST(Dataset, FromColumnsValidatesShape)
{
    EXPECT_THROW(Dataset::fromColumns({"a", "b"}, {{1.0, 2.0}}, {0.0}),
                 FatalError);
    EXPECT_THROW(Dataset::fromColumns({"a"}, {{1.0, 2.0}}, {0.0}),
                 FatalError);
    const auto data =
        Dataset::fromColumns({"a"}, {{1.0, 2.0}}, {5.0, 6.0});
    EXPECT_EQ(data.rowCount(), 2u);
    EXPECT_EQ(data.row(1), (std::vector<double>{2.0}));
}

TEST(Dataset, MutableColumnAliasesStorage)
{
    Dataset data = smallDataset();
    auto col = data.mutableColumn(1);
    col[2] = -7.0;
    EXPECT_DOUBLE_EQ(data.column(1)[2], -7.0);
    EXPECT_DOUBLE_EQ(data.row(2)[1], -7.0);
}

// --- DatasetView: borrowing, not owning --------------------------------

TEST(DatasetView, WholeViewBorrowsColumnsZeroCopy)
{
    const Dataset data = smallDataset();
    const DatasetView view(data);
    EXPECT_EQ(view.rowCount(), data.rowCount());
    EXPECT_EQ(view.featureCount(), data.featureCount());
    // The span must point into the base's storage, not at a copy.
    EXPECT_EQ(view.columnSpan(2).data(), data.column(2).data());
    EXPECT_EQ(view.targets(), data.targets());
    EXPECT_EQ(&view.base(), &data);
}

TEST(DatasetView, SeesInPlaceMutationOfBase)
{
    // The ownership rule: mutation happens only through the owning
    // Dataset, and every live view observes it (no hidden copies).
    Dataset data = smallDataset();
    const DatasetView view = DatasetView(data).withFeatures({"b"});
    EXPECT_DOUBLE_EQ(view.value(0, 0), 10.0);
    data.mutableColumn(1)[0] = 99.0;
    EXPECT_DOUBLE_EQ(view.value(0, 0), 99.0);
}

TEST(DatasetView, WithFeaturesMasksAndReorders)
{
    const Dataset data = smallDataset();
    const DatasetView view = DatasetView(data).withFeatures({"c", "a"});
    EXPECT_EQ(view.featureCount(), 2u);
    EXPECT_EQ(view.featureName(0), "c");
    EXPECT_EQ(view.featureIndex("a"), 1u);
    EXPECT_EQ(view.baseColumn(0), 2u);
    EXPECT_DOUBLE_EQ(view.value(1, 0), 200.0);
    EXPECT_DOUBLE_EQ(view.value(1, 1), 2.0);
    // Masked-out and unknown features are errors, not silent fallbacks.
    EXPECT_THROW(view.featureIndex("b"), FatalError);
    EXPECT_THROW(view.withFeatures({"b"}), FatalError);
    EXPECT_THROW(view.withFeatures({"nope"}), FatalError);
}

TEST(DatasetView, WithRowsComposes)
{
    const Dataset data = smallDataset();
    // Rows {3,1,0} of the base, then rows {2,0} of THAT view: the
    // result must be base rows {0,3}.
    const DatasetView outer = DatasetView(data).withRows({3, 1, 0});
    const DatasetView inner = outer.withRows({2, 0});
    ASSERT_EQ(inner.rowCount(), 2u);
    EXPECT_EQ(inner.baseRow(0), 0u);
    EXPECT_EQ(inner.baseRow(1), 3u);
    EXPECT_DOUBLE_EQ(inner.value(1, 0), 4.0);
    EXPECT_DOUBLE_EQ(inner.target(0), 0.5);
    EXPECT_EQ(inner.targets(), (std::vector<double>{0.5, 3.5}));
    EXPECT_FALSE(inner.identityRows());
    EXPECT_TRUE(DatasetView(data).identityRows());
}

TEST(DatasetView, GathersMatchMaterializedCopies)
{
    const Dataset data = syntheticDataset(64, 5, 21);
    const std::vector<std::size_t> rows = {5, 3, 60, 17, 17, 2};
    const std::vector<std::string> cols = {"e4", "e0", "e2"};

    const DatasetView view =
        DatasetView(data).withRows(rows).withFeatures(cols);
    const Dataset copied = data.subset(rows).project(cols);

    ASSERT_EQ(view.rowCount(), copied.rowCount());
    ASSERT_EQ(view.featureCount(), copied.featureCount());
    EXPECT_EQ(view.featureNames(), copied.featureNames());
    EXPECT_EQ(view.targets(), copied.targets());
    EXPECT_EQ(view.featureMeans(), copied.featureMeans());
    for (std::size_t f = 0; f < view.featureCount(); ++f)
        EXPECT_EQ(view.column(f), copied.column(f));
    std::vector<double> scratch(view.featureCount());
    for (std::size_t r = 0; r < view.rowCount(); ++r) {
        EXPECT_EQ(view.row(r), copied.row(r));
        view.gatherRow(r, scratch);
        EXPECT_EQ(scratch, copied.row(r));
    }

    const Dataset materialized = view.materialize();
    EXPECT_EQ(materialized.featureNames(), copied.featureNames());
    EXPECT_EQ(materialized.targets(), copied.targets());
    for (std::size_t f = 0; f < view.featureCount(); ++f)
        EXPECT_EQ(materialized.column(f), copied.column(f));
}

TEST(DatasetView, OutlivesDerivationChainNotBase)
{
    // A derived view stays valid after the intermediate views that
    // produced it are gone — it depends only on the base Dataset.
    const Dataset data = smallDataset();
    const DatasetView leaf = [&] {
        const DatasetView whole(data);
        const DatasetView masked = whole.withFeatures({"b", "c"});
        return masked.withRows({2, 0});
    }();
    EXPECT_DOUBLE_EQ(leaf.value(0, 0), 30.0);
    EXPECT_DOUBLE_EQ(leaf.value(1, 1), 100.0);
}

// --- Equivalence with the copying pipeline views replaced --------------

/**
 * Fit one ensemble on a view and one on its materialized copy; every
 * prediction and importance must agree bit for bit.
 */
void
expectGbrtFitOverViewMatchesCopy(const Dataset &data,
                                 const std::vector<std::string> &keep,
                                 const std::vector<std::size_t> &rows)
{
    const DatasetView view =
        DatasetView(data).withFeatures(keep).withRows(rows);
    const Dataset copy = data.project(keep).subset(rows);

    GbrtParams params;
    params.treeCount = 12;
    Gbrt on_view(params);
    Gbrt on_copy(params);
    Rng rng_a(7);
    Rng rng_b(7);
    on_view.fit(view, rng_a);
    on_copy.fit(copy, rng_b);

    const auto pred_view = on_view.predictAll(view);
    const auto pred_copy = on_copy.predictAll(copy);
    ASSERT_EQ(pred_view.size(), pred_copy.size());
    for (std::size_t i = 0; i < pred_view.size(); ++i)
        EXPECT_EQ(pred_view[i], pred_copy[i]) << "row " << i;

    const auto imp_view = on_view.featureImportances();
    const auto imp_copy = on_copy.featureImportances();
    ASSERT_EQ(imp_view.size(), imp_copy.size());
    for (std::size_t i = 0; i < imp_view.size(); ++i) {
        EXPECT_EQ(imp_view[i].feature, imp_copy[i].feature);
        EXPECT_EQ(imp_view[i].importance, imp_copy[i].importance);
    }
}

TEST(DatasetView, GbrtFitOverViewMatchesMaterializedBitwise)
{
    {
        SCOPED_TRACE("narrow view, ascending rows");
        const Dataset data = syntheticDataset(160, 6, 33);
        std::vector<std::size_t> rows;
        for (std::size_t r = 0; r < data.rowCount(); r += 2)
            rows.push_back(r);
        expectGbrtFitOverViewMatchesCopy(data, {"e1", "e3", "e5"}, rows);
    }
    {
        // The shape of EIR and train-split views: wide, columns out of
        // base order, rows a non-monotone permutation. The boosting
        // update reads cells through the view's column and row maps, so
        // any slip there diverges from the copy.
        SCOPED_TRACE("wide view, permuted columns and rows");
        const Dataset data = syntheticDataset(240, 64, 41);
        std::vector<std::string> keep;
        for (std::size_t i = 0; i < 56; ++i)
            keep.push_back("e" + std::to_string((29 * i + 7) % 64));
        std::vector<std::size_t> rows;
        for (std::size_t i = 0; i < 200; ++i)
            rows.push_back((37 * i + 11) % data.rowCount());
        expectGbrtFitOverViewMatchesCopy(data, keep, rows);
    }
}

TEST(DatasetView, KFoldViewsPartitionWithoutCopying)
{
    const Dataset data = syntheticDataset(40, 3, 9);
    Rng rng(11);
    const auto folds = kFold(data, 4, rng);
    ASSERT_EQ(folds.size(), 4u);
    std::vector<bool> seen(data.rowCount(), false);
    for (const auto &fold : folds) {
        EXPECT_EQ(fold.train.rowCount() + fold.test.rowCount(),
                  data.rowCount());
        // Folds are views over the caller's storage, not copies.
        EXPECT_EQ(&fold.train.base(), &data);
        EXPECT_EQ(&fold.test.base(), &data);
        for (std::size_t r = 0; r < fold.test.rowCount(); ++r) {
            const std::size_t base_row = fold.test.baseRow(r);
            EXPECT_FALSE(seen[base_row]);
            seen[base_row] = true;
        }
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

// --- Concurrency: many readers over one base ---------------------------

TEST(DatasetView, ConcurrentGatherReadersAreRaceFree)
{
    // Views are shared read-only across the pool while nobody mutates
    // the base — the contract the mining layer relies on. The TSan and
    // ASan runs of this test are the proof.
    const Dataset data = syntheticDataset(256, 8, 17);
    const DatasetView view =
        DatasetView(data).withFeatures({"e7", "e2", "e5"});

    std::vector<double> sums(view.rowCount(), 0.0);
    cminer::util::parallelFor(
        0, view.rowCount(), 16, [&](std::size_t lo, std::size_t hi) {
            std::vector<double> row(view.featureCount());
            for (std::size_t r = lo; r < hi; ++r) {
                view.gatherRow(r, row);
                double s = 0.0;
                for (double v : row)
                    s += v;
                sums[r] = s;
            }
        });
    for (std::size_t r = 0; r < view.rowCount(); ++r) {
        double expected = 0.0;
        for (std::size_t f = 0; f < view.featureCount(); ++f)
            expected += view.value(r, f);
        EXPECT_DOUBLE_EQ(sums[r], expected);
    }
}

} // namespace
