/**
 * @file
 * The persistence layer (ctest label "persistence"): checkpoint
 * container round trips, bounded-read corruption handling, model and
 * MAPM-artifact save/load bit-identity, database save/load (a .cmdb
 * file is one store segment), atomic writes, and the mapm/predict CLI
 * serving path.
 *
 * The corruption sweeps are meant to run under ASan/UBSan: every
 * truncation and byte flip must produce a clean Status/FatalError,
 * never a crash, an over-sized allocation, or a sanitizer finding.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "core/checkpoint.h"
#include "core/counterminer.h"
#include "core/importance.h"
#include "ml/dataset.h"
#include "ml/gbrt.h"
#include "ml/model_io.h"
#include "pmu/event.h"
#include "store/database.h"
#include "support/test_support.h"
#include "ts/time_series.h"
#include "util/binary_io.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/suites.h"

namespace {

using namespace cminer;
using cminer::ts::TimeSeries;
using cminer::util::BinaryReader;
using cminer::util::BinaryWriter;
using cminer::util::FatalError;
using cminer::test::readBytes;
using cminer::test::tmpPath;
using cminer::test::writeBytes;

// --- helpers --------------------------------------------------------------

/** Bitwise equality of two prediction vectors. */
void
expectBitIdentical(const std::vector<double> &a,
                   const std::vector<double> &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
              0);
}

ml::Dataset
makeDataset(std::size_t rows = 120, std::uint64_t seed = 3)
{
    util::Rng rng(seed);
    ml::Dataset data({"f0", "f1", "f2"});
    for (std::size_t r = 0; r < rows; ++r) {
        const double x0 = rng.uniform();
        const double x1 = rng.uniform(0.0, 2.0);
        const double x2 = rng.uniform(-1.0, 1.0);
        const double y =
            3.0 * x0 + x1 * x1 - x2 + 0.05 * rng.gaussian();
        data.addRow({x0, x1, x2}, y);
    }
    return data;
}

ml::Gbrt
trainSmallModel(const ml::Dataset &data, std::size_t trees = 12)
{
    ml::GbrtParams params;
    params.treeCount = trees;
    params.subsample = 0.7;
    params.tree.maxDepth = 3;
    params.tree.minSamplesLeaf = 3;
    params.tree.featureFraction = 1.0;
    ml::Gbrt model(params);
    util::Rng rng(7);
    model.fit(data, rng);
    return model;
}

std::vector<TimeSeries>
makeRunSeries()
{
    return {TimeSeries("EV_A", {1.0, 2.0, 3.0}, 200.0),
            TimeSeries("IPC", {0.5, 0.6, 0.7}, 200.0)};
}

// Little-endian raw encoders, independent of BinaryWriter, so the raw
// writer test compares against bytes built value by value.
void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putF64(std::string &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

void
putStr(std::string &out, std::string_view s)
{
    putU64(out, s.size());
    out.append(s.data(), s.size());
}

// --- container format -----------------------------------------------------

TEST(BinaryIo, PrimitivesRoundTrip)
{
    BinaryWriter out("test-artifact", 7);
    out.beginSection("alpha");
    out.u8(0xAB);
    out.u32(0xDEADBEEF);
    out.u64(0x0123456789ABCDEFULL);
    out.f64(-2.5);
    out.str("hello");
    const std::vector<double> values = {1.0, -0.0, 3.14};
    out.u64(values.size());
    out.f64Span(values);
    out.endSection();
    out.beginSection("beta");
    out.u64(99);
    out.endSection();

    auto opened = BinaryReader::fromBytes(out.finish(), "test-artifact");
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    BinaryReader in = std::move(opened).value();
    EXPECT_EQ(in.artifactVersion(), 7u);
    EXPECT_EQ(in.sectionCount(), 2u);

    EXPECT_EQ(in.beginSection(), "alpha");
    EXPECT_EQ(in.u8(), 0xAB);
    EXPECT_EQ(in.u32(), 0xDEADBEEFu);
    EXPECT_EQ(in.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(in.f64(), -2.5);
    EXPECT_EQ(in.str(), "hello");
    const auto read_values = in.f64Vec(in.count(sizeof(double)));
    expectBitIdentical(read_values, values);
    EXPECT_TRUE(in.atEnd());
    in.endSection();

    EXPECT_EQ(in.beginSection(), "beta");
    EXPECT_EQ(in.u64(), 99u);
    in.endSection();
    EXPECT_TRUE(in.ok());
    EXPECT_TRUE(in.atEnd());
}

TEST(BinaryIo, UnknownSectionsAreSkippedBySize)
{
    BinaryWriter out("test-artifact", 1);
    out.beginSection("from-the-future");
    out.f64Span(std::vector<double>(16, 1.0));
    out.endSection();
    out.beginSection("known");
    out.u64(42);
    out.endSection();

    auto opened = BinaryReader::fromBytes(out.finish(), "test-artifact");
    ASSERT_TRUE(opened.ok());
    BinaryReader in = std::move(opened).value();
    EXPECT_EQ(in.beginSection(), "from-the-future");
    in.endSection(); // no reads: skipped by declared size
    EXPECT_EQ(in.beginSection(), "known");
    EXPECT_EQ(in.u64(), 42u);
    in.endSection();
    EXPECT_TRUE(in.ok());
}

TEST(BinaryIo, RawWriterMirrorsRawReader)
{
    BinaryWriter out = BinaryWriter::raw();
    out.u8(0xAB);
    out.u32(0xDEADBEEF);
    out.u64(0x0123456789ABCDEFULL);
    out.f64(-2.5);
    out.str("hi");
    out.f64Span(std::vector<double>{1.0, -0.0});
    const std::string bytes = out.finish();

    // No header: exactly the little-endian encodings, in order.
    std::string expected = "\xAB\xEF\xBE\xAD\xDE";
    putU64(expected, 0x0123456789ABCDEFULL);
    putF64(expected, -2.5);
    putStr(expected, "hi");
    putF64(expected, 1.0);
    putF64(expected, -0.0);
    EXPECT_EQ(bytes, expected);

    BinaryReader in = BinaryReader::raw(bytes);
    EXPECT_EQ(in.u8(), 0xAB);
    EXPECT_EQ(in.u32(), 0xDEADBEEFu);
    EXPECT_EQ(in.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(in.f64(), -2.5);
    EXPECT_EQ(in.str(), "hi");
    expectBitIdentical(in.f64Vec(2), {1.0, -0.0});
    EXPECT_TRUE(in.ok());
    EXPECT_TRUE(in.atEnd());
}

TEST(BinaryIo, BorrowedRunsEncodeLikeCopiedOnes)
{
    const std::vector<double> short_run = {1.0, -0.0, 3.5};
    const std::vector<double> long_run(70, 0.25);
    auto build = [&](bool borrow) {
        BinaryWriter out("test-artifact", 3);
        out.beginSection("meta");
        out.str("odd"); // leaves the next section unaligned
        out.endSection();
        out.beginSection("columns");
        for (const auto *run : {&short_run, &long_run}) {
            out.align8();
            if (borrow)
                out.f64SpanRef(*run);
            else
                out.f64Span(*run);
        }
        out.f64SpanRef({}); // empty runs add nothing
        out.endSection();
        out.beginSection("tail");
        out.u64(out.bytesWritten());
        out.endSection();
        return out;
    };
    const std::string copied = build(false).finish();

    // writeFile() streams the borrowed runs: same bytes on disk.
    const std::string path = tmpPath("borrowed.bin");
    ASSERT_TRUE(build(true).writeFile(path).ok());
    EXPECT_EQ(readBytes(path), copied);
    std::filesystem::remove(path);

    auto opened = BinaryReader::fromBytes(copied, "test-artifact");
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    BinaryReader in = std::move(opened).value();
    EXPECT_EQ(in.beginSection(), "meta");
    in.endSection();
    EXPECT_EQ(in.beginSection(), "columns");
    while (in.offset() % 8 != 0)
        EXPECT_EQ(in.u8(), 0u);
    expectBitIdentical(in.f64Vec(short_run.size()), short_run);
    expectBitIdentical(in.f64Vec(long_run.size()), long_run);
    EXPECT_TRUE(in.atEnd());
    in.endSection();
    EXPECT_TRUE(in.ok());
}

TEST(BinaryIo, EveryTruncationFailsCleanly)
{
    BinaryWriter out("test-artifact", 1);
    out.beginSection("payload");
    out.str("some section content");
    out.u64(3);
    out.f64Span(std::vector<double>{1.0, 2.0, 3.0});
    out.endSection();
    const std::string bytes = out.finish();

    // The header's declared file size catches any shortened file.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        auto opened = BinaryReader::fromBytes(bytes.substr(0, len),
                                              "test-artifact");
        EXPECT_FALSE(opened.ok()) << "prefix of " << len << " bytes";
    }
}

TEST(BinaryIo, KindAndHeaderCorruptionRejected)
{
    BinaryWriter out("test-artifact", 1);
    out.beginSection("s");
    out.u64(1);
    out.endSection();
    const std::string bytes = out.finish();

    // Magic, container version, and declared-size bytes: any flip is
    // a clean error.
    for (std::size_t i = 0; i < 20 && i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0x5A);
        auto opened = BinaryReader::fromBytes(bad, "test-artifact");
        EXPECT_FALSE(opened.ok()) << "flipped header byte " << i;
    }
    auto wrong_kind = BinaryReader::fromBytes(bytes, "other-artifact");
    EXPECT_FALSE(wrong_kind.ok());
    EXPECT_NE(wrong_kind.status().message().find("kind"),
              std::string::npos);
}

TEST(BinaryIo, InflatedCountNamesByteOffset)
{
    BinaryWriter out("test-artifact", 1);
    out.beginSection("s");
    out.u64(1ULL << 60); // a count field claiming 2^60 elements
    out.endSection();
    auto opened = BinaryReader::fromBytes(out.finish(), "test-artifact");
    ASSERT_TRUE(opened.ok());
    BinaryReader in = std::move(opened).value();
    in.beginSection();
    EXPECT_EQ(in.count(8), 0u);
    EXPECT_FALSE(in.ok());
    EXPECT_NE(in.status().message().find("offset"), std::string::npos);
    EXPECT_NE(in.status().message().find("count"), std::string::npos);
}

TEST(BinaryIo, StringLengthBeyondFileRejected)
{
    BinaryWriter out("test-artifact", 1);
    out.beginSection("s");
    out.u64(1ULL << 40); // read back as a string length
    out.endSection();
    auto opened = BinaryReader::fromBytes(out.finish(), "test-artifact");
    ASSERT_TRUE(opened.ok());
    BinaryReader in = std::move(opened).value();
    in.beginSection();
    EXPECT_EQ(in.str(), "");
    EXPECT_FALSE(in.ok());
    EXPECT_NE(in.status().message().find("offset"), std::string::npos);
}

// --- atomic writes --------------------------------------------------------

TEST(AtomicWrite, ReplacesAndLeavesNoTempFile)
{
    const std::string path = tmpPath("atomic.bin");
    ASSERT_TRUE(util::writeFileAtomic(path, "first").ok());
    ASSERT_TRUE(util::writeFileAtomic(path, "second").ok());
    EXPECT_EQ(readBytes(path), "second");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    std::filesystem::remove(path);
}

TEST(AtomicWrite, FailureLeavesPreviousFileIntact)
{
    const std::string path = tmpPath("atomic_keep.bin");
    ASSERT_TRUE(util::writeFileAtomic(path, "good data").ok());

    // Block the temp slot with a directory: the open fails, the
    // destination must survive untouched.
    const std::string tmp = path + ".tmp";
    std::filesystem::remove_all(tmp);
    std::filesystem::create_directory(tmp);
    const auto status = util::writeFileAtomic(path, "doomed write");
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(readBytes(path), "good data");
    std::filesystem::remove_all(tmp);
    std::filesystem::remove(path);
}

TEST(AtomicWrite, MissingDirectoryIsACleanError)
{
    const auto status = util::writeFileAtomic(
        "/nonexistent_cminer_dir/file.bin", "data");
    EXPECT_FALSE(status.ok());
}

// --- model checkpoints ----------------------------------------------------

TEST(ModelCheckpoint, SaveLoadRoundTripIsBitIdentical)
{
    const auto data = makeDataset();
    const auto model = trainSmallModel(data);
    const std::string path = tmpPath("model.ckpt");

    ASSERT_TRUE(ml::saveModel(model, path).ok());
    auto loaded = ml::loadModel(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const ml::Gbrt &reloaded = loaded.value();

    EXPECT_EQ(reloaded.featureNames(), model.featureNames());
    EXPECT_EQ(reloaded.treeCount(), model.treeCount());
    EXPECT_EQ(reloaded.shrinkage(), model.shrinkage());
    EXPECT_EQ(reloaded.binEdges(), model.binEdges());

    expectBitIdentical(reloaded.predictAll(data), model.predictAll(data));

    const auto imp_a = model.featureImportances();
    const auto imp_b = reloaded.featureImportances();
    ASSERT_EQ(imp_a.size(), imp_b.size());
    for (std::size_t i = 0; i < imp_a.size(); ++i) {
        EXPECT_EQ(imp_a[i].feature, imp_b[i].feature);
        EXPECT_EQ(imp_a[i].importance, imp_b[i].importance);
    }

    // Save-of-a-load reproduces the file byte for byte.
    const std::string path2 = tmpPath("model2.ckpt");
    ASSERT_TRUE(ml::saveModel(reloaded, path2).ok());
    EXPECT_EQ(readBytes(path), readBytes(path2));
    std::filesystem::remove(path);
    std::filesystem::remove(path2);
}

/** One tree node record as a model file stores it. */
struct NodeRecord
{
    bool leaf = true;
    double value = 0.0;
    std::uint64_t feature = 0;
    double threshold = 0.0;
    std::uint64_t left = 0;
    std::uint64_t right = 0;
};

/**
 * Checks that the subtree at record `at` is in preorder, its left child
 * right after it and its right child right after the left subtree, and
 * that its leaves carry zeros; returns the first record past it.
 */
std::size_t
checkPreorder(const std::vector<NodeRecord> &tree, std::size_t at)
{
    const NodeRecord &node = tree.at(at);
    if (node.leaf) {
        EXPECT_EQ(node.feature, 0u);
        EXPECT_EQ(node.threshold, 0.0);
        EXPECT_EQ(node.left, 0u);
        EXPECT_EQ(node.right, 0u);
        return at + 1;
    }
    EXPECT_EQ(node.left, at + 1) << "node " << at;
    const std::size_t left_end = checkPreorder(tree, node.left);
    EXPECT_EQ(node.right, left_end) << "node " << at;
    return checkPreorder(tree, node.right);
}

TEST(ModelCheckpoint, FittedModelBytesArePreorderRecords)
{
    const auto data = makeDataset(240, 11);
    ml::GbrtParams params;
    params.treeCount = 30;
    params.subsample = 0.6;
    params.tree.maxDepth = 5;
    params.tree.minSamplesLeaf = 3;
    params.tree.featureFraction = 1.0;
    ml::Gbrt model(params);
    util::Rng rng(29);
    model.fit(data, rng);
    const std::string path = tmpPath("model_preorder.ckpt");
    ASSERT_TRUE(ml::saveModel(model, path).ok());
    const std::string bytes = readBytes(path);

    // FNV-1a of the file: these bytes predate the current in-memory
    // tree layout, and no layout change may move them.
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    EXPECT_EQ(hash, 0x05ba809da2378264ull) << std::hex << hash;

    auto opened = BinaryReader::open(path, ml::gbrt_artifact_kind);
    ASSERT_TRUE(opened.ok()) << opened.status().toString();
    BinaryReader in = std::move(opened).value();
    ASSERT_EQ(in.beginSection(), ml::model_section_name);
    EXPECT_EQ(in.u8(), 1u); // fitted
    in.f64();               // baseline
    in.f64();               // shrinkage
    const std::uint64_t features = in.u64();
    for (std::uint64_t f = 0; f < features; ++f)
        in.str();
    const std::uint64_t edge_lists = in.u64();
    for (std::uint64_t f = 0; f < edge_lists; ++f)
        in.f64Vec(in.u64());
    const std::uint64_t trees = in.u64();
    ASSERT_EQ(trees, model.treeCount());
    std::size_t splits_total = 0;
    for (std::uint64_t t = 0; t < trees && in.ok(); ++t) {
        std::vector<NodeRecord> tree(in.u64());
        for (NodeRecord &node : tree) {
            node.leaf = in.u8() != 0;
            node.value = in.f64();
            node.feature = in.u64();
            node.threshold = in.f64();
            node.left = in.u64();
            node.right = in.u64();
        }
        const std::uint64_t splits = in.u64();
        for (std::uint64_t s = 0; s < splits; ++s) {
            in.u64();
            in.f64();
        }
        ASSERT_TRUE(in.ok()) << in.status().toString();
        SCOPED_TRACE(t);
        EXPECT_EQ(checkPreorder(tree, 0), tree.size());
        splits_total += splits;
    }
    ASSERT_TRUE(in.ok()) << in.status().toString();
    // Deep enough that left and right subtrees differ in size.
    EXPECT_GT(splits_total, 8 * trees);
    std::filesystem::remove(path);
}

TEST(ModelCheckpoint, RefusesUnfittedModel)
{
    EXPECT_FALSE(ml::saveModel(ml::Gbrt(), tmpPath("none")).ok());
}

TEST(ModelCheckpoint, TruncationAtEveryByteFailsCleanly)
{
    const auto data = makeDataset(60);
    const auto model = trainSmallModel(data, 3);
    const std::string path = tmpPath("model_trunc.ckpt");
    ASSERT_TRUE(ml::saveModel(model, path).ok());
    const std::string bytes = readBytes(path);

    const std::string victim = tmpPath("model_trunc_victim.ckpt");
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        writeBytes(victim, std::string_view(bytes).substr(0, len));
        auto loaded = ml::loadModel(victim);
        ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes";
    }
    std::filesystem::remove(path);
    std::filesystem::remove(victim);
}

TEST(ModelCheckpoint, ByteFlipsNeverCrash)
{
    const auto data = makeDataset(60);
    const auto model = trainSmallModel(data, 3);
    const std::string path = tmpPath("model_flip.ckpt");
    ASSERT_TRUE(ml::saveModel(model, path).ok());
    const std::string bytes = readBytes(path);

    const std::string victim = tmpPath("model_flip_victim.ckpt");
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0xFF);
        writeBytes(victim, bad);
        // A flip in a float payload can load as garbage values; any
        // flip in structure must come back as a clean Status. Either
        // way: no crash, no over-allocation, no sanitizer finding.
        auto loaded = ml::loadModel(victim);
        if (!loaded.ok()) {
            EXPECT_FALSE(loaded.status().message().empty());
            continue;
        }
        // A model that loads must be usable: predicting over the
        // training rows may give garbage values, never a crash.
        EXPECT_EQ(loaded.value().predictAll(data).size(), data.rowCount())
            << "flip at byte " << i;
    }
    std::filesystem::remove(path);
    std::filesystem::remove(victim);
}

TEST(ModelCheckpoint, EmptyTreeIsRejected)
{
    // A one-feature model whose only tree has no nodes and no splits.
    BinaryWriter out(ml::gbrt_artifact_kind, ml::gbrt_artifact_version);
    out.beginSection(ml::model_section_name);
    out.u8(1);    // fitted
    out.f64(2.0); // baseline
    out.f64(0.1); // shrinkage
    out.u64(1);   // features
    out.str("f0");
    out.u64(1); // bin-edge lists
    out.u64(1);
    out.f64(1.0);
    out.u64(1); // trees
    out.u64(0); // nodes
    out.u64(0); // splits
    out.endSection();
    const std::string path = tmpPath("model_empty_tree.ckpt");
    writeBytes(path, out.finish());

    auto loaded = ml::loadModel(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("tree 0 has no nodes"),
              std::string::npos)
        << loaded.status().toString();
    std::filesystem::remove(path);
}

// --- MAPM artifact --------------------------------------------------------

core::MapmArtifact
makeArtifact(const ml::Dataset &data)
{
    core::MapmArtifact artifact;
    artifact.benchmark = "wordcount";
    artifact.microarch = "haswell-e";
    artifact.model = trainSmallModel(data);
    artifact.events = artifact.model.featureNames();
    artifact.ranking = artifact.model.featureImportances();
    artifact.cvErrorPercent = 4.25;
    return artifact;
}

TEST(MapmArtifact, SaveLoadRoundTrip)
{
    const auto data = makeDataset();
    const auto artifact = makeArtifact(data);
    const std::string path = tmpPath("mapm.ckpt");
    ASSERT_TRUE(core::saveMapmArtifact(artifact, path).ok());

    auto loaded = core::loadMapmArtifact(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const core::MapmArtifact &reloaded = loaded.value();
    EXPECT_EQ(reloaded.benchmark, artifact.benchmark);
    EXPECT_EQ(reloaded.microarch, artifact.microarch);
    EXPECT_EQ(reloaded.events, artifact.events);
    EXPECT_EQ(reloaded.cvErrorPercent, artifact.cvErrorPercent);
    ASSERT_EQ(reloaded.ranking.size(), artifact.ranking.size());
    for (std::size_t i = 0; i < artifact.ranking.size(); ++i) {
        EXPECT_EQ(reloaded.ranking[i].feature,
                  artifact.ranking[i].feature);
        EXPECT_EQ(reloaded.ranking[i].importance,
                  artifact.ranking[i].importance);
    }
    expectBitIdentical(reloaded.model.predictAll(data),
                       artifact.model.predictAll(data));
    std::filesystem::remove(path);
}

TEST(MapmArtifact, RejectsMismatchedArtifactKind)
{
    const auto data = makeDataset();
    const auto model = trainSmallModel(data);
    const std::string path = tmpPath("kind_mismatch.ckpt");
    ASSERT_TRUE(ml::saveModel(model, path).ok());
    // A bare model checkpoint is not a MAPM artifact.
    auto loaded = core::loadMapmArtifact(path);
    EXPECT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("kind"),
              std::string::npos);
    std::filesystem::remove(path);
}

TEST(MapmArtifact, RejectsEventListModelMismatch)
{
    const auto data = makeDataset();
    auto artifact = makeArtifact(data);
    artifact.events.push_back("EXTRA");
    EXPECT_FALSE(
        core::saveMapmArtifact(artifact, tmpPath("bad.ckpt")).ok());
}

// --- database persistence -------------------------------------------------

TEST(DatabaseCheckpoint, V2RoundTripAndByteStability)
{
    const std::string path = tmpPath("db_v2.cmdb");
    {
        store::Database db("haswell-e");
        db.addRun("wordcount", "hibench", "mlpx", 42.0, makeRunSeries());
        db.addRun("sort", "hibench", "ocoe", 24.0, makeRunSeries());
        db.save(path);
    }
    const store::Database loaded = store::Database::load(path);
    EXPECT_EQ(loaded.microarch(), "haswell-e");
    EXPECT_EQ(loaded.runCount(), 2u);
    const auto runs = loaded.findRuns("wordcount");
    ASSERT_EQ(runs.size(), 1u);
    const auto values = loaded.seriesValues(runs[0], "EV_A");
    ASSERT_EQ(values.size(), 3u);
    EXPECT_DOUBLE_EQ(values[1], 2.0);
    EXPECT_DOUBLE_EQ(loaded.seriesIntervalMs(runs[0]), 200.0);

    // save(load(save(db))) is byte-identical.
    const std::string path2 = tmpPath("db_v2_again.cmdb");
    loaded.save(path2);
    EXPECT_EQ(readBytes(path), readBytes(path2));
    std::filesystem::remove(path);
    std::filesystem::remove(path2);
}

TEST(DatabaseCheckpoint, V2TruncationAtEveryByteFailsCleanly)
{
    const std::string path = tmpPath("db_v2_trunc.cmdb");
    {
        store::Database db("haswell-e");
        db.addRun("wordcount", "hibench", "mlpx", 42.0, makeRunSeries());
        db.save(path);
    }
    const std::string bytes = readBytes(path);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        writeBytes(path, std::string_view(bytes).substr(0, len));
        auto loaded = store::Database::tryLoad(path);
        ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes";
    }
    std::filesystem::remove(path);
}

// --- end-to-end serving path ----------------------------------------------

/** Fast pipeline options shared by the in-process acceptance tests. */
core::ProfileOptions
fastPipelineOptions()
{
    core::ProfileOptions options;
    options.mlpxRuns = 2;
    const auto &catalog = pmu::EventCatalog::instance();
    auto events = catalog.programmableEvents();
    events.resize(40);
    options.events = std::move(events);
    options.importance.gbrt.treeCount = 30;
    options.importance.minEvents = 19;
    return options;
}

TEST(ServingPath, ReloadedModelMatchesInMemoryModelBitwise)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const auto &benchmark =
        workload::BenchmarkSuite::instance().byName("sort");

    store::Database db("haswell-e");
    core::CounterMiner miner(db, catalog, fastPipelineOptions());
    util::Rng rng(11);
    auto report = miner.profile(benchmark, rng);
    ASSERT_TRUE(report.mapmModel.fitted());

    core::MapmArtifact artifact;
    artifact.benchmark = report.benchmark;
    artifact.microarch = db.microarch();
    artifact.events = report.importance.mapmFeatures;
    artifact.ranking = report.importance.ranking;
    artifact.cvErrorPercent = report.importance.mapmErrorPercent;
    artifact.model = report.mapmModel;

    const std::string path = tmpPath("serving_mapm.ckpt");
    ASSERT_TRUE(core::saveMapmArtifact(artifact, path).ok());
    auto loaded = core::loadMapmArtifact(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();

    // Score the mined dataset with both models at several thread
    // counts: every prediction vector must be byte-identical.
    std::vector<store::RunId> ids;
    for (const auto &program : db.programs())
        for (const auto id : db.findRuns(program, "mlpx"))
            ids.push_back(id);
    const auto data =
        core::ImportanceRanker::buildDatasetFromStore(db, ids, catalog);
    const auto view =
        ml::DatasetView(data).withFeatures(artifact.events);

    util::Parallelism::setThreadCount(1);
    const auto in_memory = report.mapmModel.predictAll(view);
    for (const std::size_t threads : {1u, 2u, 8u}) {
        util::Parallelism::setThreadCount(threads);
        expectBitIdentical(loaded.value().model.predictAll(view),
                           in_memory);
    }
    util::Parallelism::setThreadCount(1);
    std::filesystem::remove(path);
}

TEST(ServingPath, CliMapmThenPredictIsThreadCountInvariant)
{
    const std::string model = tmpPath("cli_mapm.ckpt");
    const std::string db = tmpPath("cli_runs.cmdb");

    std::string out;
    ASSERT_EQ(cli::run({"mapm", "sort", "--min-events", "150",
                        "--seed", "5", "--model-out", model, "--db",
                        db, "--threads", "1"},
                       out),
              0)
        << out;
    EXPECT_NE(out.find("wrote model checkpoint"), std::string::npos);

    std::vector<std::string> csvs;
    for (const char *threads : {"1", "2", "8"}) {
        const std::string csv =
            tmpPath(std::string("cli_pred_") + threads + ".csv");
        std::string pout;
        ASSERT_EQ(cli::run({"predict", db, "--model", model, "--out",
                            csv, "--threads", threads},
                           pout),
                  0)
            << pout;
        EXPECT_NE(pout.find("scored"), std::string::npos);
        csvs.push_back(readBytes(csv));
        std::filesystem::remove(csv);
    }
    util::Parallelism::setThreadCount(1);
    ASSERT_EQ(csvs.size(), 3u);
    EXPECT_EQ(csvs[0], csvs[1]);
    EXPECT_EQ(csvs[0], csvs[2]);
    EXPECT_NE(csvs[0].find("row,predicted_ipc,measured_ipc"),
              std::string::npos);

    std::filesystem::remove(model);
    std::filesystem::remove(db);
}

TEST(ServingPath, PredictRejectsCorruptModelAndDatabase)
{
    const std::string model = tmpPath("bad_model.ckpt");
    const std::string db = tmpPath("bad_db.cmdb");
    writeBytes(model, "garbage bytes");
    writeBytes(db, "also garbage");
    std::string out;
    EXPECT_EQ(cli::run({"predict", db, "--model", model}, out), 1);
    EXPECT_NE(out.find("error:"), std::string::npos);
    std::filesystem::remove(model);
    std::filesystem::remove(db);
}

} // namespace
