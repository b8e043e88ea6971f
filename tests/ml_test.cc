/**
 * @file
 * Unit tests for the ML substrate: dataset plumbing, metrics, OLS exact
 * recovery, KNN regression and temporal imputation, regression trees,
 * SGBRT accuracy and Friedman importance, and CV splitting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <string_view>

#include "ml/cv.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/gbrt.h"
#include "ml/knn.h"
#include "ml/linear_regression.h"
#include "ml/metrics.h"
#include "util/binary_io.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace cminer::ml;
using cminer::util::FatalError;
using cminer::util::Rng;

// --- Dataset -----------------------------------------------------------

TEST(Dataset, BasicPlumbing)
{
    Dataset data({"a", "b"});
    data.addRow({1.0, 2.0}, 10.0);
    data.addRow({3.0, 4.0}, 20.0);
    EXPECT_EQ(data.rowCount(), 2u);
    EXPECT_EQ(data.featureCount(), 2u);
    EXPECT_EQ(data.featureIndex("b"), 1u);
    EXPECT_DOUBLE_EQ(data.target(1), 20.0);
    EXPECT_EQ(data.column(0), (std::vector<double>{1.0, 3.0}));
    EXPECT_EQ(data.featureMeans(), (std::vector<double>{2.0, 3.0}));
}

TEST(Dataset, DuplicateFeatureRejected)
{
    EXPECT_THROW(Dataset({"a", "a"}), FatalError);
}

TEST(Dataset, RowWidthMismatchRejected)
{
    Dataset data({"a", "b"});
    EXPECT_THROW(data.addRow({1.0}, 0.0), FatalError);
}

TEST(Dataset, ProjectSelectsColumns)
{
    Dataset data({"a", "b", "c"});
    data.addRow({1.0, 2.0, 3.0}, 0.5);
    const Dataset projected = data.project({"c", "a"});
    EXPECT_EQ(projected.featureCount(), 2u);
    EXPECT_DOUBLE_EQ(projected.row(0)[0], 3.0);
    EXPECT_DOUBLE_EQ(projected.row(0)[1], 1.0);
    EXPECT_DOUBLE_EQ(projected.target(0), 0.5);
    EXPECT_THROW(data.project({"missing"}), FatalError);
}

TEST(Dataset, SplitPartitionsAllRows)
{
    Dataset data({"x"});
    for (int i = 0; i < 100; ++i)
        data.addRow({static_cast<double>(i)}, i);
    Rng rng(1);
    const auto [train, test] = data.split(0.8, rng);
    EXPECT_EQ(train.rowCount(), 80u);
    EXPECT_EQ(test.rowCount(), 20u);
    // All targets present exactly once across the two parts.
    double total = 0.0;
    for (std::size_t i = 0; i < train.rowCount(); ++i)
        total += train.target(i);
    for (std::size_t i = 0; i < test.rowCount(); ++i)
        total += test.target(i);
    EXPECT_DOUBLE_EQ(total, 99.0 * 100.0 / 2.0);
}

// --- metrics -----------------------------------------------------------

TEST(Metrics, MapeKnownValue)
{
    const std::vector<double> actual = {100.0, 200.0};
    const std::vector<double> predicted = {110.0, 180.0};
    EXPECT_NEAR(mape(actual, predicted), (10.0 + 10.0) / 2.0, 1e-12);
}

TEST(Metrics, MapeSkipsZeroActuals)
{
    const std::vector<double> actual = {0.0, 100.0};
    const std::vector<double> predicted = {5.0, 110.0};
    EXPECT_NEAR(mape(actual, predicted), 10.0, 1e-12);
}

TEST(Metrics, RmseKnownValue)
{
    const std::vector<double> actual = {0.0, 0.0, 0.0, 0.0};
    const std::vector<double> predicted = {1.0, -1.0, 1.0, -1.0};
    EXPECT_DOUBLE_EQ(rmse(actual, predicted), 1.0);
}

TEST(Metrics, ResidualVarianceZeroForExactFit)
{
    const std::vector<double> x = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(residualVariance(x, x), 0.0);
    const std::vector<double> off = {2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(residualVariance(x, off), 1.0);
}

// --- linear regression ------------------------------------------------------

TEST(LinearRegression, ExactOnNoiselessLinearData)
{
    Dataset data({"x1", "x2"});
    Rng rng(2);
    for (int i = 0; i < 50; ++i) {
        const double x1 = rng.uniform(-5, 5);
        const double x2 = rng.uniform(-5, 5);
        data.addRow({x1, x2}, 3.0 * x1 - 2.0 * x2 + 7.0);
    }
    LinearRegression model;
    model.fit(data);
    EXPECT_NEAR(model.coefficients()[0], 3.0, 1e-6);
    EXPECT_NEAR(model.coefficients()[1], -2.0, 1e-6);
    EXPECT_NEAR(model.intercept(), 7.0, 1e-6);
    EXPECT_NEAR(model.predict({1.0, 1.0}), 8.0, 1e-6);
}

TEST(LinearRegression, TooFewRowsRejected)
{
    Dataset data({"a", "b"});
    data.addRow({1.0, 2.0}, 1.0);
    LinearRegression model;
    EXPECT_THROW(model.fit(data), FatalError);
}

TEST(LinearRegression, RobustToNearCollinearFeatures)
{
    Dataset data({"a", "b"});
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const double x = rng.uniform(-1, 1);
        data.addRow({x, x + rng.gaussian(0.0, 1e-6)}, 2.0 * x);
    }
    LinearRegression model(1e-6);
    model.fit(data); // must not blow up
    EXPECT_NEAR(model.predict({0.5, 0.5}), 1.0, 0.05);
}

TEST(SolveLinearSystem, KnownSolution)
{
    // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
    auto x = solveLinearSystem({{2, 1}, {1, 3}}, {5, 10});
    ASSERT_EQ(x.size(), 2u);
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinearSystem, SingularSystemRejected)
{
    EXPECT_THROW(solveLinearSystem({{1, 1}, {2, 2}}, {1, 2}), FatalError);
}

// --- KNN -----------------------------------------------------------------

TEST(KnnImpute, FillsFromNearestTemporalNeighbors)
{
    //                 0    1    2     3(m)  4    5
    std::vector<double> v = {10.0, 12.0, 14.0, 0.0, 18.0, 20.0};
    const std::size_t filled = knnImputeSeries(v, {3}, 4);
    EXPECT_EQ(filled, 1u);
    // Nearest four observed by index: 2, 4, 1, 5.
    EXPECT_DOUBLE_EQ(v[3], (14.0 + 18.0 + 12.0 + 20.0) / 4.0);
}

TEST(KnnImpute, HandlesEdgesAndRuns)
{
    std::vector<double> v = {0.0, 0.0, 30.0, 40.0, 0.0};
    const std::size_t filled = knnImputeSeries(v, {0, 1, 4}, 2);
    EXPECT_EQ(filled, 3u);
    EXPECT_DOUBLE_EQ(v[0], 35.0);
    EXPECT_DOUBLE_EQ(v[1], 35.0);
    EXPECT_DOUBLE_EQ(v[4], 35.0);
}

TEST(KnnImpute, AllMissingFallsBackToZeroFill)
{
    // With no observed sample anywhere there is nothing to impute from;
    // the series must still come back finite (NaNs would poison every
    // downstream statistic), so the holes are filled with 0.0 and the
    // fills are reported.
    std::vector<double> v = {std::nan(""), -3.0};
    EXPECT_EQ(knnImputeSeries(v, {0, 1}, 3), 2u);
    EXPECT_DOUBLE_EQ(v[0], 0.0);
    EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST(KnnImpute, NoMissingNoChange)
{
    std::vector<double> v = {1.0, 2.0};
    EXPECT_EQ(knnImputeSeries(v, {}, 3), 0u);
    EXPECT_DOUBLE_EQ(v[0], 1.0);
}

// --- regression tree ------------------------------------------------------

TEST(RegressionTree, FitsStepFunctionExactly)
{
    Dataset data({"x"});
    std::vector<double> targets;
    std::vector<std::size_t> rows;
    for (int i = 0; i < 100; ++i) {
        const double x = i / 100.0;
        data.addRow({x}, x < 0.5 ? 1.0 : 5.0);
        targets.push_back(x < 0.5 ? 1.0 : 5.0);
        rows.push_back(i);
    }
    const FeatureBinner binner(data, 32);
    TreeParams params;
    params.maxDepth = 2;
    RegressionTree tree(params);
    Rng rng(4);
    tree.fit(data, binner, targets, rows, rng);
    EXPECT_NEAR(tree.predict({0.2}), 1.0, 1e-9);
    EXPECT_NEAR(tree.predict({0.8}), 5.0, 1e-9);
    ASSERT_FALSE(tree.splits().empty());
    EXPECT_EQ(tree.splits()[0].feature, 0u);
    EXPECT_GT(tree.splits()[0].improvement, 0.0);
}

TEST(RegressionTree, RespectsMaxDepth)
{
    Dataset data({"x"});
    std::vector<double> targets;
    std::vector<std::size_t> rows;
    Rng noise(5);
    for (int i = 0; i < 200; ++i) {
        const double x = i / 200.0;
        data.addRow({x}, std::sin(10.0 * x) + noise.gaussian(0.0, 0.01));
        targets.push_back(std::sin(10.0 * x));
        rows.push_back(i);
    }
    const FeatureBinner binner(data, 32);
    TreeParams params;
    params.maxDepth = 1;
    RegressionTree tree(params);
    Rng rng(6);
    tree.fit(data, binner, targets, rows, rng);
    EXPECT_LE(tree.leafCount(), 2u);
    EXPECT_LE(tree.splits().size(), 1u);
}

TEST(RegressionTree, ConstantTargetStaysLeaf)
{
    Dataset data({"x"});
    std::vector<double> targets(50, 3.0);
    std::vector<std::size_t> rows;
    for (int i = 0; i < 50; ++i) {
        data.addRow({static_cast<double>(i)}, 3.0);
        rows.push_back(i);
    }
    const FeatureBinner binner(data, 16);
    RegressionTree tree;
    Rng rng(7);
    tree.fit(data, binner, targets, rows, rng);
    EXPECT_TRUE(tree.splits().empty());
    EXPECT_DOUBLE_EQ(tree.predict({25.0}), 3.0);
}

TEST(FeatureBinner, QuantileBinsCoverRange)
{
    Dataset data({"x"});
    for (int i = 0; i < 1000; ++i)
        data.addRow({static_cast<double>(i % 100)}, 0.0);
    const FeatureBinner binner(data, 16);
    EXPECT_LE(binner.binCount(0), 16u);
    EXPECT_GE(binner.binCount(0), 8u);
    // Every row maps to a valid bin.
    for (std::size_t r = 0; r < data.rowCount(); r += 97)
        EXPECT_LT(binner.binColumn(0)[r], binner.binCount(0));
}

TEST(FeatureBinner, ConstantFeatureCollapsesToOneBin)
{
    Dataset data({"x"});
    for (int i = 0; i < 100; ++i)
        data.addRow({5.0}, 0.0);
    const FeatureBinner binner(data, 16);
    EXPECT_EQ(binner.binCount(0), 1u);
}

// --- SGBRT ------------------------------------------------------------

TEST(Gbrt, OutpredictsLinearModelOnNonlinearData)
{
    Dataset data({"x1", "x2"});
    Rng gen(8);
    for (int i = 0; i < 800; ++i) {
        const double x1 = gen.uniform(-2, 2);
        const double x2 = gen.uniform(-2, 2);
        const double y =
            std::sin(2.0 * x1) + x2 * x2 + gen.gaussian(0.0, 0.05);
        data.addRow({x1, x2}, y);
    }
    Rng rng(9);
    auto [train, test] = data.split(0.8, rng);

    GbrtParams params;
    params.tree.featureFraction = 1.0;
    Gbrt gbrt(params);
    gbrt.fit(train, rng);
    LinearRegression linear;
    linear.fit(train);

    const double gbrt_rmse = rmse(test.targets(), gbrt.predictAll(test));
    const double linear_rmse =
        rmse(test.targets(), linear.predictAll(test));
    EXPECT_LT(gbrt_rmse, 0.6 * linear_rmse);
}

TEST(Gbrt, ImportanceRecoversPlantedOrder)
{
    // y depends strongly on x0, weakly on x1, not at all on x2..x5.
    Dataset data({"x0", "x1", "x2", "x3", "x4", "x5"});
    Rng gen(10);
    for (int i = 0; i < 1500; ++i) {
        std::vector<double> row(6);
        for (auto &v : row)
            v = gen.gaussian();
        const double y = 3.0 * row[0] + 0.7 * row[1] +
                         gen.gaussian(0.0, 0.1);
        data.addRow(row, y);
    }
    Rng rng(11);
    GbrtParams params;
    params.tree.featureFraction = 0.5;
    Gbrt gbrt(params);
    gbrt.fit(data, rng);
    const auto importances = gbrt.featureImportances();
    EXPECT_EQ(importances[0].feature, "x0");
    EXPECT_EQ(importances[1].feature, "x1");
    EXPECT_GT(importances[0].importance, 60.0);
    // Noise features get only scraps.
    for (std::size_t i = 2; i < importances.size(); ++i)
        EXPECT_LT(importances[i].importance, 10.0);
}

TEST(Gbrt, ImportancesSumTo100)
{
    Dataset data({"a", "b", "c"});
    Rng gen(12);
    for (int i = 0; i < 400; ++i) {
        const double a = gen.gaussian();
        const double b = gen.gaussian();
        const double c = gen.gaussian();
        data.addRow({a, b, c}, a + 0.5 * b + 0.1 * c);
    }
    Rng rng(13);
    Gbrt gbrt;
    gbrt.fit(data, rng);
    const auto importances = gbrt.featureImportances();
    double total = 0.0;
    for (const auto &fi : importances)
        total += fi.importance;
    EXPECT_NEAR(total, 100.0, 1e-6);
    // Sorted descending.
    for (std::size_t i = 1; i < importances.size(); ++i)
        EXPECT_GE(importances[i - 1].importance,
                  importances[i].importance);
}

TEST(Gbrt, SortByImportanceBreaksTiesByFeatureName)
{
    // Tied importances are common in practice (a constant-target fit
    // leaves every feature at exactly zero). std::sort is unstable, so
    // without a secondary key the tie order — and therefore every
    // exported ranking — varied across STL implementations and runs.
    std::vector<FeatureImportance> ranking = {
        {"zeta", 10.0},  {"mid", 50.0},  {"beta", 10.0},
        {"alpha", 10.0}, {"top", 90.0},  {"gamma", 10.0},
    };
    sortByImportance(ranking);
    ASSERT_EQ(ranking.size(), 6u);
    EXPECT_EQ(ranking[0].feature, "top");
    EXPECT_EQ(ranking[1].feature, "mid");
    // The four-way tie at 10.0 resolves alphabetically, always.
    EXPECT_EQ(ranking[2].feature, "alpha");
    EXPECT_EQ(ranking[3].feature, "beta");
    EXPECT_EQ(ranking[4].feature, "gamma");
    EXPECT_EQ(ranking[5].feature, "zeta");
}

TEST(Gbrt, TiedImportancesRankIdenticallyForAnyThreadCount)
{
    // A constant target early-stops the fit: every feature importance is
    // exactly 0.0 and the ranking order is pure tie-break. It must be
    // bitwise identical however the pipeline is threaded.
    Dataset data({"delta", "alpha", "charlie", "bravo"});
    for (int i = 0; i < 64; ++i) {
        data.addRow({static_cast<double>(i), static_cast<double>(-i),
                     static_cast<double>(i % 7),
                     static_cast<double>(i % 3)},
                    5.0);
    }
    std::vector<std::vector<std::string>> orders;
    for (std::size_t threads : {1u, 4u}) {
        cminer::util::Parallelism::setThreadCount(threads);
        Rng rng(14);
        Gbrt gbrt;
        gbrt.fit(data, rng);
        std::vector<std::string> order;
        for (const auto &fi : gbrt.featureImportances())
            order.push_back(fi.feature);
        orders.push_back(std::move(order));
    }
    cminer::util::Parallelism::setThreadCount(0);
    EXPECT_EQ(orders[0], orders[1]);
    EXPECT_EQ(orders[0],
              (std::vector<std::string>{"alpha", "bravo", "charlie",
                                        "delta"}));
}

TEST(Gbrt, ConstantTargetEarlyStops)
{
    Dataset data({"x"});
    for (int i = 0; i < 100; ++i)
        data.addRow({static_cast<double>(i)}, 5.0);
    Rng rng(14);
    Gbrt gbrt;
    gbrt.fit(data, rng);
    EXPECT_EQ(gbrt.treeCount(), 0u);
    EXPECT_DOUBLE_EQ(gbrt.predict({50.0}), 5.0);
}

TEST(Gbrt, PredictAllMatchesPerRowPredictBitwise)
{
    // Regression pin: predictAll walks the ensemble row-major with the
    // row bound once by reference; its output must stay bit-identical
    // to calling predict() on every row.
    Dataset data({"x", "y", "z"});
    Rng gen(41);
    for (int i = 0; i < 200; ++i) {
        const double x = gen.gaussian();
        const double y = gen.gaussian();
        const double z = gen.uniform(0.0, 4.0);
        data.addRow({x, y, z}, 2.0 * x - y + 0.5 * x * z);
    }
    Gbrt model;
    Rng rng(42);
    model.fit(data, rng);
    ASSERT_TRUE(model.fitted());

    const auto all = model.predictAll(data);
    ASSERT_EQ(all.size(), data.rowCount());
    for (std::size_t r = 0; r < data.rowCount(); ++r)
        EXPECT_EQ(all[r], model.predict(data.row(r))) << "row " << r;
}

TEST(Gbrt, DeterministicGivenSeed)
{
    Dataset data({"x", "y"});
    Rng gen(15);
    for (int i = 0; i < 300; ++i) {
        const double x = gen.gaussian();
        const double y = gen.gaussian();
        data.addRow({x, y}, x * y);
    }
    Gbrt a;
    Gbrt b;
    Rng rng_a(7);
    Rng rng_b(7);
    a.fit(data, rng_a);
    b.fit(data, rng_b);
    EXPECT_DOUBLE_EQ(a.predict({0.5, -0.5}), b.predict({0.5, -0.5}));
}

// --- tree walk ------------------------------------------------------------
//
// The lockstep walk against an independent reference: a fitted model's
// node records are decoded from its serialized bytes by a test-local
// reader and walked one row at a time, `x <= threshold ? left : right`
// until a leaf.

/** One node record as a serialized tree stores it. */
struct RecordNode
{
    bool leaf = true;
    double value = 0.0;
    std::uint64_t feature = 0;
    double threshold = 0.0;
    std::uint64_t left = 0;
    std::uint64_t right = 0;
};

/** An ensemble as its serialized records describe it. */
struct RecordModel
{
    double baseline = 0.0;
    double shrinkage = 0.1;
    std::vector<std::string> features;
    std::vector<std::vector<RecordNode>> trees;

    double predict(std::span<const double> x) const
    {
        double y = baseline;
        for (const auto &tree : trees) {
            std::size_t at = 0;
            while (!tree[at].leaf) {
                const RecordNode &node = tree[at];
                at = x[node.feature] <= node.threshold ? node.left
                                                       : node.right;
            }
            y += shrinkage * tree[at].value;
        }
        return y;
    }
};

/** Little-endian cursor over serialized bytes; throws when short. */
class RecordReader
{
  public:
    explicit RecordReader(std::string bytes) : bytes_(std::move(bytes)) {}

    template <typename T>
    T get()
    {
        T value;
        std::memcpy(&value, take(sizeof(T)).data(), sizeof(T));
        return value;
    }

    std::string_view take(std::size_t n)
    {
        if (bytes_.size() - pos_ < n)
            throw std::runtime_error("record bytes end early");
        const std::string_view out(bytes_.data() + pos_, n);
        pos_ += n;
        return out;
    }

    bool atEnd() const { return pos_ == bytes_.size(); }

  private:
    std::string bytes_;
    std::size_t pos_ = 0;
};

RecordModel
decodeRecords(const Gbrt &model)
{
    auto writer = cminer::util::BinaryWriter::raw();
    model.serialize(writer);
    RecordReader in(writer.finish());
    RecordModel out;
    EXPECT_EQ(in.get<std::uint8_t>(), 1u); // fitted
    out.baseline = in.get<double>();
    out.shrinkage = in.get<double>();
    const auto features = in.get<std::uint64_t>();
    for (std::uint64_t f = 0; f < features; ++f)
        out.features.emplace_back(in.take(in.get<std::uint64_t>()));
    const auto edge_lists = in.get<std::uint64_t>();
    for (std::uint64_t f = 0; f < edge_lists; ++f)
        in.take(8 * in.get<std::uint64_t>());
    const auto trees = in.get<std::uint64_t>();
    for (std::uint64_t t = 0; t < trees; ++t) {
        std::vector<RecordNode> tree(in.get<std::uint64_t>());
        for (RecordNode &node : tree) {
            node.leaf = in.get<std::uint8_t>() != 0;
            node.value = in.get<double>();
            node.feature = in.get<std::uint64_t>();
            node.threshold = in.get<double>();
            node.left = in.get<std::uint64_t>();
            node.right = in.get<std::uint64_t>();
        }
        in.take(16 * in.get<std::uint64_t>()); // split records
        out.trees.push_back(std::move(tree));
    }
    EXPECT_TRUE(in.atEnd());
    return out;
}

/** Model bytes holding the records (no bin edges, no splits). */
std::string
recordBytes(const RecordModel &records)
{
    auto out = cminer::util::BinaryWriter::raw();
    out.u8(1);
    out.f64(records.baseline);
    out.f64(records.shrinkage);
    out.u64(records.features.size());
    for (const auto &name : records.features)
        out.str(name);
    out.u64(records.features.size());
    for (std::size_t f = 0; f < records.features.size(); ++f)
        out.u64(0);
    out.u64(records.trees.size());
    for (const auto &tree : records.trees) {
        out.u64(tree.size());
        for (const RecordNode &node : tree) {
            out.u8(node.leaf ? 1 : 0);
            out.f64(node.value);
            out.u64(node.feature);
            out.f64(node.threshold);
            out.u64(node.left);
            out.u64(node.right);
        }
        out.u64(0);
    }
    return out.finish();
}

/** Load records through Gbrt::deserialize. */
Gbrt
encodeRecords(const RecordModel &records)
{
    auto in = cminer::util::BinaryReader::raw(recordBytes(records));
    Gbrt model = Gbrt::deserialize(in);
    EXPECT_TRUE(in.ok()) << in.status().toString();
    return model;
}

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/**
 * predict, predictRows and predictAll (at 1, 2 and 8 threads) against
 * the record walk, bit for bit, on every row of `data`.
 */
void
expectWalkMatchesRecords(const Gbrt &model, const RecordModel &records,
                         const DatasetView &data)
{
    std::vector<std::vector<double>> rows;
    std::vector<std::uint64_t> expected;
    for (std::size_t r = 0; r < data.rowCount(); ++r) {
        rows.push_back(data.row(r));
        expected.push_back(bitsOf(records.predict(rows.back())));
        ASSERT_EQ(bitsOf(model.predict(rows.back())), expected.back())
            << "predict, row " << r << " of " << data.rowCount();
    }
    std::vector<double> out(data.rowCount());
    model.predictRows(
        data.rowCount(), data.featureCount(),
        [&](std::size_t feature, std::size_t row) {
            return rows[row][feature];
        },
        out);
    for (std::size_t r = 0; r < out.size(); ++r)
        ASSERT_EQ(bitsOf(out[r]), expected[r])
            << "predictRows, row " << r << " of " << out.size();
    for (const std::size_t threads : {1u, 2u, 8u}) {
        cminer::util::Parallelism::setThreadCount(threads);
        const auto all = model.predictAll(data);
        ASSERT_EQ(all.size(), data.rowCount());
        for (std::size_t r = 0; r < all.size(); ++r)
            ASSERT_EQ(bitsOf(all[r]), expected[r])
                << "predictAll, row " << r << " of " << all.size()
                << " at " << threads << " threads";
    }
    cminer::util::Parallelism::setThreadCount(0);
}

/** Depths of a record tree's reachable leaves. */
std::set<std::size_t>
leafDepths(const std::vector<RecordNode> &tree)
{
    std::set<std::size_t> depths;
    std::vector<std::pair<std::size_t, std::size_t>> stack = {{0, 0}};
    while (!stack.empty()) {
        const auto [at, depth] = stack.back();
        stack.pop_back();
        if (tree[at].leaf) {
            depths.insert(depth);
        } else {
            stack.emplace_back(tree[at].left, depth + 1);
            stack.emplace_back(tree[at].right, depth + 1);
        }
    }
    return depths;
}

/**
 * The records of `tree` renumbered in preorder (root, left subtree,
 * right subtree) or, with `breadth_first`, level by level.
 */
std::vector<RecordNode>
renumbered(const std::vector<RecordNode> &tree, bool breadth_first)
{
    std::vector<std::size_t> visit; // new position -> old index
    std::vector<std::size_t> pending = {0};
    while (!pending.empty()) {
        std::size_t at;
        if (breadth_first) {
            at = pending.front();
            pending.erase(pending.begin());
        } else {
            at = pending.back();
            pending.pop_back();
        }
        visit.push_back(at);
        if (tree[at].leaf)
            continue;
        if (breadth_first) {
            pending.push_back(tree[at].left);
            pending.push_back(tree[at].right);
        } else {
            pending.push_back(tree[at].right);
            pending.push_back(tree[at].left);
        }
    }
    std::vector<std::size_t> position(tree.size());
    for (std::size_t i = 0; i < visit.size(); ++i)
        position[visit[i]] = i;
    std::vector<RecordNode> out;
    for (const std::size_t at : visit) {
        RecordNode node = tree[at];
        if (!node.leaf) {
            node.left = position[node.left];
            node.right = position[node.right];
        }
        out.push_back(node);
    }
    return out;
}

/** Field-by-field, bit-for-bit equality of two record trees. */
void
expectSameRecords(const std::vector<RecordNode> &a,
                  const std::vector<RecordNode> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].leaf, b[i].leaf) << "node " << i;
        EXPECT_EQ(bitsOf(a[i].value), bitsOf(b[i].value)) << "node " << i;
        EXPECT_EQ(a[i].feature, b[i].feature) << "node " << i;
        EXPECT_EQ(bitsOf(a[i].threshold), bitsOf(b[i].threshold))
            << "node " << i;
        EXPECT_EQ(a[i].left, b[i].left) << "node " << i;
        EXPECT_EQ(a[i].right, b[i].right) << "node " << i;
    }
}

TEST(TreeWalk, MatchesRecordWalkBitForBit)
{
    const std::vector<std::string> names = {"f0", "f1", "f2", "f3"};
    Dataset train(names);
    Rng gen(91);
    for (int i = 0; i < 400; ++i) {
        const double a = gen.gaussian();
        const double b = gen.uniform(-2.0, 2.0);
        const double c = gen.gaussian();
        const double d = gen.uniform();
        train.addRow({a, b, c, d},
                     std::sin(2.0 * a) + b * c + (d > 0.7 ? 1.5 : 0.0));
    }
    GbrtParams params;
    params.treeCount = 40;
    params.tree.maxDepth = 5;
    params.tree.minSamplesLeaf = 9;
    Gbrt fitted(params);
    Rng rng(92);
    fitted.fit(train, rng);
    ASSERT_GT(fitted.treeCount(), 10u);

    // Trees ten levels deep, the depth bench/ablation_models.cc fits.
    params.treeCount = 12;
    params.tree.maxDepth = 10;
    params.tree.minSamplesLeaf = 2;
    Gbrt deep(params);
    Rng deep_rng(95);
    deep.fit(train, deep_rng);

    // The fitted trees of both, one lone leaf, and one deep tree whose
    // records are breadth-first instead of preorder, loaded back as one
    // model.
    RecordModel records = decodeRecords(fitted);
    const RecordModel deep_records = decodeRecords(deep);
    records.trees.insert(records.trees.end(), deep_records.trees.begin(),
                         deep_records.trees.end());
    std::set<std::size_t> depths;
    for (const auto &tree : records.trees) {
        const auto tree_depths = leafDepths(tree);
        depths.insert(tree_depths.begin(), tree_depths.end());
    }
    ASSERT_GE(depths.size(), 3u) << "leaves at several depths";
    ASSERT_EQ(*depths.rbegin(), 10u) << "a tree ten levels deep";
    records.trees.push_back({RecordNode{.value = -0.75}});
    const std::vector<RecordNode> breadth_first =
        renumbered(deep_records.trees.front(), true);
    bool preorder = true;
    for (std::size_t i = 0; i < breadth_first.size(); ++i)
        preorder = preorder &&
                   (breadth_first[i].leaf || breadth_first[i].left == i + 1);
    ASSERT_FALSE(preorder);
    records.trees.push_back(breadth_first);
    const Gbrt model = encodeRecords(records);
    ASSERT_EQ(model.treeCount(), records.trees.size());

    // Saving the loaded model writes every tree in preorder, so the
    // fitted trees come back as they were and the breadth-first one
    // renumbered.
    const RecordModel saved = decodeRecords(model);
    ASSERT_EQ(saved.trees.size(), records.trees.size());
    for (std::size_t t = 0; t < saved.trees.size(); ++t) {
        SCOPED_TRACE(t);
        expectSameRecords(saved.trees[t], renumbered(records.trees[t], false));
    }
    expectSameRecords(saved.trees.back(), deep_records.trees.front());

    // Thresholds the model splits on, so rows land exactly on them.
    std::vector<std::pair<std::size_t, double>> cuts;
    for (const auto &tree : records.trees)
        for (const RecordNode &node : tree)
            if (!node.leaf)
                cuts.emplace_back(node.feature, node.threshold);
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> specials = {
        std::numeric_limits<double>::quiet_NaN(), inf, -inf, -0.0, 0.0};

    for (const std::size_t count :
         {1u, 7u, 8u, 9u, 255u, 256u, 257u, 513u}) {
        Dataset data(names);
        for (std::size_t r = 0; r < count; ++r) {
            std::vector<double> row = {gen.gaussian(),
                                       gen.uniform(-2.0, 2.0),
                                       gen.gaussian(), gen.uniform()};
            const double pick = gen.uniform();
            if (pick < 0.3) {
                const auto &[f, threshold] = cuts[static_cast<std::size_t>(
                    gen.uniformInt(0, static_cast<std::int64_t>(
                                          cuts.size()) - 1))];
                row[f] = threshold;
            } else if (pick < 0.6) {
                row[static_cast<std::size_t>(gen.uniformInt(0, 3))] =
                    specials[static_cast<std::size_t>(
                        gen.uniformInt(0, 4))];
            }
            data.addRow(row, 0.0);
        }
        SCOPED_TRACE(count);
        expectWalkMatchesRecords(model, records, data);
    }

    // A view that permutes a column subset of a wider base and a row
    // subset of its rows.
    const std::vector<std::string> wide = {"x0", "f2", "x1", "f0",
                                           "f3", "x2", "f1"};
    Dataset base(wide);
    for (int r = 0; r < 600; ++r) {
        std::vector<double> row(wide.size());
        for (auto &v : row)
            v = gen.gaussian();
        if (r % 7 == 0)
            row[static_cast<std::size_t>(r % 5)] = specials[r % 5];
        base.addRow(row, 0.0);
    }
    std::vector<std::size_t> picked;
    for (std::size_t r = 0; r < 600; r += 2)
        picked.push_back((r * 389) % 600);
    const DatasetView view = DatasetView(base).withFeatures(names).withRows(
        picked);
    expectWalkMatchesRecords(model, records, view);
}

/**
 * Load a two-tree model whose second tree is `tree` and return the
 * reader's status: grow() writes only trees, so these files are
 * hand-made.
 */
cminer::util::Status
loadWithSecondTree(std::vector<RecordNode> tree)
{
    RecordModel records;
    records.baseline = 0.5;
    records.shrinkage = 1.0;
    records.features = {"f0", "f1", "f2", "f3"};
    records.trees.push_back({RecordNode{.value = 1.0}});
    records.trees.push_back(std::move(tree));
    auto in = cminer::util::BinaryReader::raw(recordBytes(records));
    const Gbrt model = Gbrt::deserialize(in);
    EXPECT_FALSE(model.fitted());
    return in.status();
}

RecordNode
splitRecord(std::uint64_t feature, std::uint64_t left, std::uint64_t right,
            double value)
{
    return RecordNode{.leaf = false,
                      .value = value,
                      .feature = feature,
                      .threshold = 0.0,
                      .left = left,
                      .right = right};
}

RecordNode
leafRecord(double value)
{
    return RecordNode{.value = value};
}

TEST(TreeWalk, NodeWithTwoParentsIsRejected)
{
    // Node 6 is a child of node 2 (depth 2) and of node 5 (depth 1).
    // Every child points forward, so only the parent count tells this
    // graph from a tree.
    const auto status = loadWithSecondTree({splitRecord(0, 1, 5, 100.0),
                                            splitRecord(1, 2, 3, 101.0),
                                            splitRecord(2, 4, 6, 102.0),
                                            leafRecord(3.0),
                                            leafRecord(4.0),
                                            splitRecord(1, 6, 7, 105.0),
                                            splitRecord(3, 8, 9, 106.0),
                                            leafRecord(7.0),
                                            leafRecord(8.0),
                                            leafRecord(9.0)});
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), cminer::util::StatusCode::DataError);
    EXPECT_NE(status.message().find("tree 1 node 6 has two parents"),
              std::string::npos)
        << status.toString();
}

TEST(TreeWalk, NodeNoParentReachesIsRejected)
{
    // Node 3 splits forward, but no node names it as a child.
    const auto status = loadWithSecondTree(
        {splitRecord(0, 1, 2, 100.0), leafRecord(1.0), leafRecord(2.0),
         splitRecord(1, 4, 5, 103.0), leafRecord(4.0), leafRecord(5.0)});
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), cminer::util::StatusCode::DataError);
    EXPECT_NE(status.message().find("tree 1 node 3 has no parent"),
              std::string::npos)
        << status.toString();
}

TEST(TreeWalk, NarrowerRowsAreFatal)
{
    Dataset data({"a", "b", "c"});
    Rng gen(93);
    for (int i = 0; i < 60; ++i) {
        const double a = gen.gaussian();
        data.addRow({a, gen.gaussian(), gen.gaussian()}, a);
    }
    GbrtParams params;
    params.treeCount = 5;
    Gbrt model(params);
    Rng rng(94);
    model.fit(data, rng);
    EXPECT_THROW(model.predictAll(DatasetView(data).withFeatures({"a", "b"})),
                 FatalError);
    EXPECT_THROW(model.predict({1.0, 2.0}), FatalError);
}

// --- CV ----------------------------------------------------------------

TEST(Cv, KFoldPartitionsExactly)
{
    Dataset data({"x"});
    for (int i = 0; i < 30; ++i)
        data.addRow({static_cast<double>(i)}, i);
    Rng rng(16);
    const auto folds = kFold(data, 5, rng);
    ASSERT_EQ(folds.size(), 5u);
    std::size_t test_total = 0;
    for (const auto &fold : folds) {
        EXPECT_EQ(fold.train.rowCount() + fold.test.rowCount(), 30u);
        test_total += fold.test.rowCount();
    }
    EXPECT_EQ(test_total, 30u);
}

TEST(Cv, TrainTestSplitFraction)
{
    Dataset data({"x"});
    for (int i = 0; i < 40; ++i)
        data.addRow({static_cast<double>(i)}, i);
    Rng rng(17);
    const auto split = trainTestSplit(data, 0.75, rng);
    EXPECT_EQ(split.train.rowCount(), 30u);
    EXPECT_EQ(split.test.rowCount(), 10u);
}

/** Parameterized: GBRT learning rate / tree count tradeoff stays sane. */
class GbrtParamSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, double>>
{};

TEST_P(GbrtParamSweep, FitsQuadraticWell)
{
    const auto [trees, lr] = GetParam();
    Dataset data({"x"});
    Rng gen(18);
    for (int i = 0; i < 600; ++i) {
        const double x = gen.uniform(-2, 2);
        data.addRow({x}, x * x + gen.gaussian(0.0, 0.02));
    }
    Rng rng(19);
    auto [train, test] = data.split(0.8, rng);
    GbrtParams params;
    params.treeCount = trees;
    params.learningRate = lr;
    params.tree.featureFraction = 1.0;
    Gbrt gbrt(params);
    gbrt.fit(train, rng);
    EXPECT_LT(rmse(test.targets(), gbrt.predictAll(test)), 0.25)
        << "trees " << trees << " lr " << lr;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GbrtParamSweep,
    ::testing::Values(std::make_pair(std::size_t{50}, 0.3),
                      std::make_pair(std::size_t{150}, 0.1),
                      std::make_pair(std::size_t{300}, 0.05)));

} // namespace
