/**
 * @file
 * Tests for the mining layer (ctest label "mining", DESIGN.md §17):
 * DTW distance-matrix symmetry and bit-identity across thread counts,
 * LB_Keogh-pruned nearest-medoid search equal to brute force,
 * deterministic k-medoids (PAM) from a seeded Rng stream, cluster
 * artifact persistence (round trip + truncation/byte-flip sweeps in
 * the checkpoint-container discipline), and the anomaly-surveillance
 * acceptance path: a serve daemon's `score` requests flag >= 90% of
 * fault-injected runs while holding <= 5% false positives on clean
 * runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/collector.h"
#include "core/importance.h"
#include "mining/anomaly.h"
#include "mining/distance.h"
#include "mining/kmedoids.h"
#include "ml/dataset.h"
#include "ml/gbrt.h"
#include "pmu/event.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "store/database.h"
#include "support/test_support.h"
#include "ts/dtw.h"
#include "ts/lb_keogh.h"
#include "ts/time_series.h"
#include "util/binary_io.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace {

using namespace cminer;
using cminer::util::Rng;
using cminer::test::MetricsGuard;
using cminer::test::ThreadCountGuard;
using cminer::test::readBytes;
using cminer::test::tmpPath;
using cminer::test::writeBytes;

// --- helpers --------------------------------------------------------------

/**
 * Signatures drawn from `groups` distinct shape families (shifted
 * sinusoids of different frequencies) plus per-signature noise.
 */
std::vector<std::vector<double>>
plantedSignatures(std::size_t count, std::size_t length,
                  std::size_t groups, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> signatures;
    signatures.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t group = i % groups;
        std::vector<double> values(length);
        for (std::size_t t = 0; t < length; ++t) {
            const double x = static_cast<double>(t) /
                             static_cast<double>(length - 1);
            values[t] =
                std::sin(2.0 * M_PI *
                         (static_cast<double>(group + 1) * x)) +
                0.3 * static_cast<double>(group) * x +
                rng.gaussian(0.0, 0.05);
        }
        signatures.push_back(std::move(values));
    }
    return signatures;
}

// --- distance matrix ------------------------------------------------------

TEST(MiningDistance, MatrixSymmetricZeroDiagonalThreadInvariant)
{
    const auto signatures = plantedSignatures(12, 64, 3, 0x5eed);
    mining::SignatureOptions options;
    options.length = 64;

    std::vector<double> baseline;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadCountGuard guard(threads);
        const auto matrix =
            mining::dtwDistanceMatrix(signatures, options);
        const std::size_t n = signatures.size();
        ASSERT_EQ(matrix.size(), n * n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(matrix[i * n + i], 0.0) << "diagonal " << i;
            for (std::size_t j = 0; j < n; ++j)
                EXPECT_EQ(matrix[i * n + j], matrix[j * n + i])
                    << "pair " << i << "," << j;
        }
        if (baseline.empty()) {
            baseline = matrix;
        } else {
            ASSERT_EQ(matrix.size(), baseline.size());
            EXPECT_EQ(std::memcmp(matrix.data(), baseline.data(),
                                  matrix.size() * sizeof(double)),
                      0)
                << "matrix differs at " << threads << " threads";
        }
    }
}

TEST(MiningDistance, MatrixMatchesDirectDtw)
{
    // Counts around the block and pool-chunk widths: a single pair,
    // part blocks, and (6 and 7 signatures: 15 and 21 pairs) full
    // 8-pair chunks followed by a partial one.
    for (const std::size_t count : {2u, 3u, 4u, 5u, 6u, 7u, 9u}) {
        const auto signatures = plantedSignatures(count, 48, 2, 0xd15c);
        for (const double band : {0.0, 0.1, 1.0}) {
            mining::SignatureOptions options;
            options.length = 48;
            options.bandFraction = band;
            const auto matrix =
                mining::dtwDistanceMatrix(signatures, options);
            for (std::size_t i = 0; i < count; ++i) {
                for (std::size_t j = i + 1; j < count; ++j) {
                    const double direct = mining::signatureDistance(
                        signatures[i], signatures[j], options);
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                                  matrix[i * count + j]),
                              std::bit_cast<std::uint64_t>(direct))
                        << count << " signatures, band " << band
                        << ", pair " << i << "," << j;
                }
            }
        }
    }
}

TEST(MiningDistance, NearestMedoidMatchesBruteForce)
{
    // Planted-family queries sit next to one medoid. Random-walk
    // queries match no family, so their bounds order the medoids least
    // like their distances do: an inadmissible bound shows there.
    auto queries = plantedSignatures(28, 56, 4, 0xabcd);
    const std::vector<std::vector<double>> medoids(queries.begin(),
                                                   queries.begin() + 8);
    const std::vector<std::span<const double>> medoid_views(
        medoids.begin(), medoids.end());
    queries.erase(queries.begin(), queries.begin() + 8);
    Rng rng(0x6b0d);
    for (int walk = 0; walk < 40; ++walk) {
        std::vector<double> values(56);
        double level = 0.0;
        for (auto &v : values) {
            level += rng.gaussian();
            v = level;
        }
        ts::zNormalize(values);
        queries.push_back(std::move(values));
    }
    // Band 0 is unconstrained DTW: the envelope must span the series.
    for (const double band : {0.0, 0.05, 0.1, 1.0}) {
        mining::SignatureOptions options;
        options.length = 56;
        options.bandFraction = band;
        for (std::size_t q = 0; q < queries.size(); ++q) {
            const auto pruned = mining::nearestMedoid(
                queries[q], medoid_views, options);
            // Brute force with the same lexicographic (distance, index)
            // preference the pruned search guarantees.
            std::size_t best = 0;
            double best_distance = mining::signatureDistance(
                queries[q], medoids[0], options);
            for (std::size_t m = 1; m < medoids.size(); ++m) {
                const double d = mining::signatureDistance(
                    queries[q], medoids[m], options);
                if (d < best_distance) {
                    best_distance = d;
                    best = m;
                }
            }
            EXPECT_EQ(pruned.index, best)
                << "band " << band << " query " << q;
            EXPECT_EQ(pruned.distance, best_distance)
                << "band " << band << " query " << q;
            EXPECT_LE(pruned.dtwEvaluations, medoids.size());
        }
    }
}

TEST(MiningDistance, MakeSignatureNormalizesShape)
{
    mining::SignatureOptions options;
    options.length = 32;
    std::vector<double> ramp(200);
    for (std::size_t i = 0; i < ramp.size(); ++i)
        ramp[i] = 5.0 + 0.25 * static_cast<double>(i);
    const auto signature = mining::makeSignature(ramp, options);
    ASSERT_EQ(signature.size(), 32u);
    // Z-normalized: mean ~0, and a scaled copy maps to the same shape.
    double sum = 0.0;
    for (double v : signature)
        sum += v;
    EXPECT_NEAR(sum / 32.0, 0.0, 1e-9);
    std::vector<double> scaled = ramp;
    for (auto &v : scaled)
        v = v * 37.0 + 11.0;
    const auto scaled_signature = mining::makeSignature(scaled, options);
    for (std::size_t i = 0; i < signature.size(); ++i)
        EXPECT_NEAR(signature[i], scaled_signature[i], 1e-9);
}

// --- k-medoids ------------------------------------------------------------

TEST(MiningKMedoids, BitIdenticalAcrossThreadCounts)
{
    const auto signatures = plantedSignatures(24, 64, 3, 0xfeed);
    mining::SignatureOptions sig_options;
    sig_options.length = 64;
    mining::KMedoidsOptions options;
    options.k = 3;

    std::vector<std::size_t> medoids;
    std::vector<std::size_t> assignment;
    double cost = 0.0;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadCountGuard guard(threads);
        const auto matrix =
            mining::dtwDistanceMatrix(signatures, sig_options);
        Rng rng(99);
        const auto result = mining::kMedoids(matrix, signatures.size(),
                                             options, rng);
        ASSERT_EQ(result.medoids.size(), 3u);
        ASSERT_EQ(result.assignment.size(), signatures.size());
        EXPECT_TRUE(std::is_sorted(result.medoids.begin(),
                                   result.medoids.end()));
        if (medoids.empty()) {
            medoids = result.medoids;
            assignment = result.assignment;
            cost = result.totalCost;
        } else {
            EXPECT_EQ(result.medoids, medoids)
                << "medoids differ at " << threads << " threads";
            EXPECT_EQ(result.assignment, assignment)
                << "assignment differs at " << threads << " threads";
            EXPECT_EQ(std::memcmp(&result.totalCost, &cost,
                                  sizeof(double)),
                      0)
                << "cost differs at " << threads << " threads";
        }
    }
}

TEST(MiningKMedoids, SeededInitIsReproducibleFromOwnStream)
{
    const auto signatures = plantedSignatures(18, 48, 3, 0x1234);
    mining::SignatureOptions sig_options;
    sig_options.length = 48;
    const auto matrix =
        mining::dtwDistanceMatrix(signatures, sig_options);
    mining::KMedoidsOptions options;
    options.k = 3;

    Rng first(4242);
    Rng second(4242);
    const auto a =
        mining::kMedoids(matrix, signatures.size(), options, first);
    const auto b =
        mining::kMedoids(matrix, signatures.size(), options, second);
    EXPECT_EQ(a.medoids, b.medoids);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(std::memcmp(&a.totalCost, &b.totalCost, sizeof(double)),
              0);

    // Each medoid is assigned to its own slot at zero distance.
    const std::size_t n = signatures.size();
    for (std::size_t s = 0; s < a.medoids.size(); ++s) {
        EXPECT_EQ(a.assignment[a.medoids[s]], s);
        EXPECT_EQ(matrix[a.medoids[s] * n + a.medoids[s]], 0.0);
    }
}

TEST(MiningKMedoids, RecoversPlantedFamilies)
{
    // Three widely separated shape families, interleaved by index.
    const std::size_t groups = 3;
    const auto signatures = plantedSignatures(24, 64, groups, 0xace);
    mining::SignatureOptions sig_options;
    sig_options.length = 64;
    const auto matrix =
        mining::dtwDistanceMatrix(signatures, sig_options);
    mining::KMedoidsOptions options;
    options.k = groups;
    Rng rng(7);
    const auto result =
        mining::kMedoids(matrix, signatures.size(), options, rng);

    // All members of one planted group must land in one cluster.
    for (std::size_t i = 0; i < signatures.size(); ++i)
        EXPECT_EQ(result.assignment[i],
                  result.assignment[i % groups])
            << "signature " << i;
}

TEST(MiningKMedoids, ClampsKToItemCount)
{
    const auto signatures = plantedSignatures(4, 32, 2, 0xbeef);
    mining::SignatureOptions sig_options;
    sig_options.length = 32;
    const auto matrix =
        mining::dtwDistanceMatrix(signatures, sig_options);
    mining::KMedoidsOptions options;
    options.k = 10;
    Rng rng(3);
    const auto result =
        mining::kMedoids(matrix, signatures.size(), options, rng);
    EXPECT_EQ(result.medoids.size(), 4u);
    EXPECT_EQ(result.totalCost, 0.0);
}

// --- cluster artifact persistence ----------------------------------------

mining::ClusterArtifact
makeClusterArtifact(bool calibrated = true)
{
    mining::ClusterArtifact artifact;
    artifact.benchmark = "toy";
    artifact.microarch = "haswell-e";
    artifact.signature.event = "IPC";
    artifact.signature.length = 16;
    artifact.signature.zNormalize = true;
    artifact.signature.bandFraction = 0.1;
    Rng rng(0x717);
    for (std::size_t f = 0; f < 2; ++f) {
        mining::ClusterFamily family;
        family.medoidRun = 10 + f;
        family.program = f == 0 ? "sort" : "wordcount";
        family.memberCount = 5 + f;
        family.signature.resize(16);
        for (auto &v : family.signature)
            v = rng.gaussian(0.0, 1.0);
        artifact.families.push_back(std::move(family));
    }
    if (calibrated) {
        artifact.residualMean = -0.0125;
        artifact.residualStddev = 0.004;
        artifact.residualZThreshold = 6.0;
        artifact.signatureThreshold = 2.75;
    }
    return artifact;
}

TEST(ClusterArtifact, RoundTripsBitIdentical)
{
    const auto artifact = makeClusterArtifact();
    const std::string path = tmpPath("roundtrip.ckpt");
    ASSERT_TRUE(mining::saveClusterArtifact(artifact, path).ok());

    auto loaded = mining::loadClusterArtifact(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const auto &round = loaded.value();
    EXPECT_EQ(round.benchmark, artifact.benchmark);
    EXPECT_EQ(round.microarch, artifact.microarch);
    EXPECT_EQ(round.signature.event, artifact.signature.event);
    EXPECT_EQ(round.signature.length, artifact.signature.length);
    EXPECT_EQ(round.signature.zNormalize,
              artifact.signature.zNormalize);
    EXPECT_EQ(round.signature.bandFraction,
              artifact.signature.bandFraction);
    ASSERT_EQ(round.families.size(), artifact.families.size());
    for (std::size_t f = 0; f < round.families.size(); ++f) {
        EXPECT_EQ(round.families[f].medoidRun,
                  artifact.families[f].medoidRun);
        EXPECT_EQ(round.families[f].program,
                  artifact.families[f].program);
        EXPECT_EQ(round.families[f].memberCount,
                  artifact.families[f].memberCount);
        ASSERT_EQ(round.families[f].signature.size(),
                  artifact.families[f].signature.size());
        EXPECT_EQ(std::memcmp(
                      round.families[f].signature.data(),
                      artifact.families[f].signature.data(),
                      round.families[f].signature.size() *
                          sizeof(double)),
                  0);
    }
    EXPECT_EQ(round.residualMean, artifact.residualMean);
    EXPECT_EQ(round.residualStddev, artifact.residualStddev);
    EXPECT_EQ(round.residualZThreshold, artifact.residualZThreshold);
    EXPECT_EQ(round.signatureThreshold, artifact.signatureThreshold);
    std::filesystem::remove(path);
}

TEST(ClusterArtifact, SaveRejectsStructurallyInvalidArtifacts)
{
    const std::string path = tmpPath("invalid.ckpt");

    auto short_signature = makeClusterArtifact();
    short_signature.signature.length = 1;
    EXPECT_FALSE(
        mining::saveClusterArtifact(short_signature, path).ok());

    auto mismatched = makeClusterArtifact();
    mismatched.families[0].signature.resize(7);
    EXPECT_FALSE(mining::saveClusterArtifact(mismatched, path).ok());

    auto negative = makeClusterArtifact();
    negative.signatureThreshold = -1.0;
    EXPECT_FALSE(mining::saveClusterArtifact(negative, path).ok());

    auto zero_stddev = makeClusterArtifact();
    zero_stddev.residualStddev = 0.0;
    EXPECT_FALSE(mining::saveClusterArtifact(zero_stddev, path).ok());

    auto bad_band = makeClusterArtifact();
    bad_band.signature.bandFraction = 1.5;
    EXPECT_FALSE(mining::saveClusterArtifact(bad_band, path).ok());

    // A medoid signature feeds DTW on every score, which needs it
    // finite; load shares this validation.
    auto non_finite = makeClusterArtifact();
    non_finite.families[0].signature[3] = std::nan("");
    EXPECT_FALSE(mining::saveClusterArtifact(non_finite, path).ok());

    // An uncalibrated artifact (thresholds zero) is a valid save —
    // scoring refuses it, persistence does not.
    EXPECT_TRUE(
        mining::saveClusterArtifact(makeClusterArtifact(false), path)
            .ok());
    std::filesystem::remove(path);
}

TEST(ClusterArtifact, TruncationAtEveryByteFailsCleanly)
{
    const auto artifact = makeClusterArtifact();
    const std::string path = tmpPath("trunc.ckpt");
    ASSERT_TRUE(mining::saveClusterArtifact(artifact, path).ok());
    const std::string bytes = readBytes(path);

    const std::string victim = tmpPath("trunc_victim.ckpt");
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        writeBytes(victim, std::string_view(bytes).substr(0, len));
        auto loaded = mining::loadClusterArtifact(victim);
        ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes";
        EXPECT_FALSE(loaded.status().message().empty());
    }
    std::filesystem::remove(path);
    std::filesystem::remove(victim);
}

TEST(ClusterArtifact, ByteFlipsNeverCrash)
{
    const auto artifact = makeClusterArtifact();
    const std::string path = tmpPath("flip.ckpt");
    ASSERT_TRUE(mining::saveClusterArtifact(artifact, path).ok());
    const std::string bytes = readBytes(path);

    const std::string victim = tmpPath("flip_victim.ckpt");
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0xFF);
        writeBytes(victim, bad);
        // A flip in a float payload can load as garbage values; any
        // structural flip must come back as a clean Status. Either
        // way: no crash, no over-allocation, no sanitizer finding.
        auto loaded = mining::loadClusterArtifact(victim);
        if (!loaded.ok()) {
            EXPECT_FALSE(loaded.status().message().empty());
        }
    }
    std::filesystem::remove(path);
    std::filesystem::remove(victim);
}

// --- synthetic training store ---------------------------------------------

/**
 * One synthetic run: three feature series plus an IPC series that is a
 * noisy deterministic function of them, with an asymmetric (ramp-
 * driven) shape so a time-reversed run leaves the signature families.
 */
void
addSyntheticRun(store::Database &db, Rng &rng)
{
    const std::size_t len = 96;
    const double phase = rng.uniform(0.0, 0.4);
    std::vector<double> fa(len);
    std::vector<double> fb(len);
    std::vector<double> fc(len);
    std::vector<double> ipc(len);
    for (std::size_t i = 0; i < len; ++i) {
        const double x = static_cast<double>(i) /
                         static_cast<double>(len - 1);
        fa[i] = 100.0 + 40.0 * std::sin(2.0 * M_PI * (x + phase)) +
                rng.gaussian(0.0, 1.0);
        fb[i] = 50.0 + 30.0 * x + rng.gaussian(0.0, 1.0);
        fc[i] = 10.0 + 5.0 * std::cos(2.0 * M_PI * x) +
                rng.gaussian(0.0, 0.5);
        // The asymmetric ramp (fb) must dominate the IPC shape: a
        // reversed sinusoid is just a re-phased sinusoid, so a
        // sin-dominated signature could not distinguish a
        // time-reversed run from the training runs' phase spread.
        ipc[i] = 0.2 + 0.0008 * fa[i] + 0.012 * fb[i] -
                 0.002 * fc[i] + rng.gaussian(0.0, 0.01);
    }
    db.addRun("toy", "synthetic", "mlpx",
              static_cast<double>(len) * 10.0,
              {ts::TimeSeries("FA", std::move(fa), 10.0),
               ts::TimeSeries("FB", std::move(fb), 10.0),
               ts::TimeSeries("FC", std::move(fc), 10.0),
               ts::TimeSeries(core::ipc_series_name, std::move(ipc),
                              10.0)});
}

/** Everything one anomaly-surveillance test needs. */
struct ScorerBundle
{
    store::Database db{"haswell-e"};
    std::vector<store::RunId> trainIds;
    std::vector<store::RunId> testIds;
    std::shared_ptr<const core::MapmArtifact> model;
    mining::ClusterArtifact clusters;
    std::shared_ptr<const mining::AnomalyScorer> scorer;
};

/**
 * Build a store of train_count + test_count clean synthetic runs,
 * fit a MAPM on the training runs, cluster their signatures into two
 * families, and calibrate the anomaly thresholds.
 */
ScorerBundle
buildScorerBundle(std::size_t train_count, std::size_t test_count,
                  std::uint64_t seed = 0x5c0)
{
    ScorerBundle bundle;
    Rng rng(seed);
    for (std::size_t r = 0; r < train_count + test_count; ++r)
        addSyntheticRun(bundle.db, rng);
    const auto all = bundle.db.findRuns("toy", "mlpx");
    bundle.trainIds.assign(all.begin(),
                           all.begin() +
                               static_cast<std::ptrdiff_t>(train_count));
    bundle.testIds.assign(all.begin() +
                              static_cast<std::ptrdiff_t>(train_count),
                          all.end());

    const auto &catalog = pmu::EventCatalog::instance();
    const auto data = core::ImportanceRanker::buildDatasetFromStore(
        bundle.db, bundle.trainIds, catalog);
    ml::GbrtParams params;
    params.treeCount = 40;
    ml::Gbrt gbrt(params);
    Rng fit_rng(11);
    gbrt.fit(data, fit_rng);

    core::MapmArtifact artifact;
    artifact.benchmark = "toy";
    artifact.microarch = "haswell-e";
    artifact.events = data.featureNames();
    artifact.cvErrorPercent = 1.0;
    artifact.model = std::move(gbrt);
    bundle.model = std::make_shared<const core::MapmArtifact>(
        std::move(artifact));

    const auto snap = bundle.db.snapshot();
    mining::SignatureOptions sig_options;
    sig_options.length = 64;
    std::vector<std::vector<double>> signatures;
    for (const auto id : bundle.trainIds)
        signatures.push_back(
            mining::runSignature(snap, id, sig_options));
    const auto matrix =
        mining::dtwDistanceMatrix(signatures, sig_options);
    mining::KMedoidsOptions cluster_options;
    cluster_options.k = 2;
    Rng cluster_rng(21);
    const auto families = mining::kMedoids(
        matrix, signatures.size(), cluster_options, cluster_rng);

    mining::ClusterArtifact clusters;
    clusters.benchmark = "toy";
    clusters.microarch = "haswell-e";
    clusters.signature = sig_options;
    std::vector<std::size_t> member_counts(families.medoids.size(), 0);
    for (const std::size_t slot : families.assignment)
        ++member_counts[slot];
    for (std::size_t f = 0; f < families.medoids.size(); ++f) {
        mining::ClusterFamily family;
        family.medoidRun = static_cast<std::uint64_t>(
            bundle.trainIds[families.medoids[f]]);
        family.program = "toy";
        family.memberCount = member_counts[f];
        family.signature = signatures[families.medoids[f]];
        clusters.families.push_back(std::move(family));
    }

    auto calibrated = mining::AnomalyScorer::calibrate(
        bundle.model, std::move(clusters), snap, bundle.trainIds,
        catalog);
    EXPECT_TRUE(calibrated.ok()) << calibrated.status().toString();
    bundle.clusters = calibrated.value().clusters();
    bundle.scorer = std::make_shared<const mining::AnomalyScorer>(
        std::move(calibrated).value());
    return bundle;
}

/** Row-major feature matrix + measured IPC of one stored run. */
void
gatherWireRun(const store::StoreSnapshot &snap, store::RunId id,
              std::vector<double> &values, std::vector<double> &measured,
              std::size_t &rows)
{
    const auto &events = snap.runInfo(id).events;
    rows = snap.length(id);
    const std::size_t features = events.size() - 1;
    values.resize(rows * features);
    for (std::size_t e = 0; e < features; ++e) {
        const auto column = snap.values(id, e);
        for (std::size_t r = 0; r < rows; ++r)
            values[r * features + e] = column[r];
    }
    const auto ipc = snap.values(id, features);
    measured.assign(ipc.begin(), ipc.end());
}

// --- anomaly scorer -------------------------------------------------------

TEST(AnomalyScorer, CalibrationLearnsPositiveThresholds)
{
    const auto bundle = buildScorerBundle(12, 0);
    EXPECT_GT(bundle.clusters.residualZThreshold, 0.0);
    EXPECT_GE(bundle.clusters.residualZThreshold, 6.0);
    EXPECT_GT(bundle.clusters.residualStddev, 0.0);
    EXPECT_GT(bundle.clusters.signatureThreshold, 0.0);
    ASSERT_EQ(bundle.clusters.families.size(), 2u);
}

TEST(AnomalyScorer, RefusesUncalibratedArtifact)
{
    const auto bundle = buildScorerBundle(4, 1);
    auto uncalibrated = bundle.clusters;
    uncalibrated.residualZThreshold = 0.0;
    const mining::AnomalyScorer scorer(bundle.model,
                                       std::move(uncalibrated));
    const auto snap = bundle.db.snapshot();
    auto scored = scorer.scoreRun(snap, bundle.testIds.front(),
                                  pmu::EventCatalog::instance());
    ASSERT_FALSE(scored.ok());
    EXPECT_EQ(scored.status().code(),
              util::StatusCode::DataError);
}

TEST(AnomalyScorer, ScoreValidatesShapes)
{
    const auto bundle = buildScorerBundle(4, 0);
    const std::vector<double> measured(8, 1.0);
    // values not rows x events
    EXPECT_FALSE(bundle.scorer
                     ->score(std::vector<double>(7, 1.0), 8, measured)
                     .ok());
    // measured length != rows
    EXPECT_FALSE(bundle.scorer
                     ->score(std::vector<double>(24, 1.0), 8,
                             std::vector<double>(3, 1.0))
                     .ok());
    // zero rows
    EXPECT_FALSE(bundle.scorer->score({}, 0, {}).ok());
    // a non-finite measured sample: DTW needs a finite signature, so
    // the request is refused by name instead of reaching it
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {std::nan(""), inf, -inf}) {
        std::vector<double> poisoned = measured;
        poisoned[5] = bad;
        const auto scored = bundle.scorer->score(
            std::vector<double>(24, 1.0), 8, poisoned);
        ASSERT_FALSE(scored.ok()) << bad;
        EXPECT_EQ(scored.status().code(), util::StatusCode::DataError);
        EXPECT_NE(scored.status().toString().find("row 5"),
                  std::string::npos)
            << scored.status().toString();
    }
    // finite samples whose z-normalization overflows
    const auto huge = bundle.scorer->score(
        std::vector<double>(24, 1.0), 8, std::vector<double>(8, 1e308));
    ASSERT_FALSE(huge.ok());
    EXPECT_EQ(huge.status().code(), util::StatusCode::DataError);
}

TEST(AnomalyScorer, RoundTripsThroughCheckpointBitIdentical)
{
    const auto bundle = buildScorerBundle(8, 4);
    const std::string path = tmpPath("scorer_roundtrip.ckpt");
    ASSERT_TRUE(
        mining::saveClusterArtifact(bundle.clusters, path).ok());
    auto loaded = mining::loadClusterArtifact(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const mining::AnomalyScorer reloaded(bundle.model,
                                         std::move(loaded).value());

    // Verdicts through the reloaded scorer are bit-identical to the
    // in-memory one: the artifact carries everything scoring needs.
    const auto snap = bundle.db.snapshot();
    const auto &catalog = pmu::EventCatalog::instance();
    for (const auto id : bundle.testIds) {
        const auto a = bundle.scorer->scoreRun(snap, id, catalog);
        const auto b = reloaded.scoreRun(snap, id, catalog);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a.value().anomalous, b.value().anomalous);
        EXPECT_EQ(std::memcmp(&a.value().residualZ,
                              &b.value().residualZ, sizeof(double)),
                  0);
        EXPECT_EQ(std::memcmp(&a.value().signatureDistance,
                              &b.value().signatureDistance,
                              sizeof(double)),
                  0);
        EXPECT_EQ(a.value().familyIndex, b.value().familyIndex);
    }
    std::filesystem::remove(path);
}

// --- serve score protocol -------------------------------------------------

TEST(ServeScoreProtocol, ScoreRequestRoundTrips)
{
    serve::ScoreRequest request;
    request.id = 77;
    request.deadlineMs = 25.0;
    request.scorer = "toy";
    request.events = {"FA", "FB"};
    request.rowCount = 2;
    request.values = {1.0, 2.0, 3.0, 4.0};
    request.measured = {0.5, 0.75};

    auto decoded =
        serve::decodeRequest(serve::encodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const auto &round =
        std::get<serve::ScoreRequest>(decoded.value());
    EXPECT_EQ(round.id, 77u);
    EXPECT_EQ(round.deadlineMs, 25.0);
    EXPECT_EQ(round.scorer, "toy");
    EXPECT_EQ(round.events, request.events);
    EXPECT_EQ(round.rowCount, 2u);
    EXPECT_EQ(round.values, request.values);
    EXPECT_EQ(round.measured, request.measured);
}

TEST(ServeScoreProtocol, ScoreResponseRoundTrips)
{
    serve::Response response;
    response.type = serve::MessageType::Score;
    response.id = 31;
    response.text = "toy: residual z 7.250 *";
    response.anomalous = true;
    response.residualZ = 7.25;
    response.signatureDistance = 1.5;
    response.familyIndex = 1;

    auto decoded =
        serve::decodeResponse(serve::encodeResponse(response));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const auto &round = decoded.value();
    EXPECT_EQ(round.type, serve::MessageType::Score);
    EXPECT_EQ(round.id, 31u);
    EXPECT_TRUE(round.anomalous);
    EXPECT_EQ(round.residualZ, 7.25);
    EXPECT_EQ(round.signatureDistance, 1.5);
    EXPECT_EQ(round.familyIndex, 1u);
    EXPECT_EQ(round.text, response.text);
}

TEST(ServeScoreProtocol, TruncationSweepFailsCleanly)
{
    serve::ScoreRequest request;
    request.id = 5;
    request.scorer = "toy";
    request.events = {"FA"};
    request.rowCount = 3;
    request.values = {1.0, 2.0, 3.0};
    request.measured = {0.9, 1.0, 1.1};
    const std::string payload = serve::encodeRequest(request);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        auto decoded =
            serve::decodeRequest(payload.substr(0, len));
        EXPECT_FALSE(decoded.ok()) << "prefix of " << len;
    }
}

// --- serve score handling -------------------------------------------------

/** Submit one request and decode the (synchronous) response. */
serve::Response
submitScore(serve::Server &server, const serve::ScoreRequest &request)
{
    std::string response_payload;
    server.submitFrame(
        serve::encodeRequest(serve::Request(request)),
        [&](std::string payload) {
            response_payload = std::move(payload);
        });
    auto decoded = serve::decodeResponse(response_payload);
    EXPECT_TRUE(decoded.ok()) << decoded.status().toString();
    return decoded.ok() ? std::move(decoded).value()
                        : serve::Response{};
}

TEST(ServeScore, UnknownScorerIsDataError)
{
    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);

    serve::ScoreRequest request;
    request.id = 1;
    request.scorer = "nope";
    request.events = {"FA"};
    request.rowCount = 1;
    request.values = {1.0};
    request.measured = {1.0};
    const auto response = submitScore(server, request);
    EXPECT_EQ(response.type, serve::MessageType::Score);
    EXPECT_EQ(response.code, util::StatusCode::DataError);
    server.drain();
}

TEST(ServeScore, EventListMismatchIsDataError)
{
    const auto bundle = buildScorerBundle(4, 0);
    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);
    server.registerScorer("toy", bundle.scorer);
    EXPECT_EQ(server.scorerNames(),
              std::vector<std::string>{"toy"});

    serve::ScoreRequest request;
    request.id = 2;
    request.scorer = "toy";
    request.events = {"FA", "FB"}; // model has FA FB FC
    request.rowCount = 1;
    request.values = {1.0, 2.0};
    request.measured = {1.0};
    const auto response = submitScore(server, request);
    EXPECT_EQ(response.code, util::StatusCode::DataError);
    server.drain();
}

TEST(ServeScore, NonFiniteMeasuredIsDataErrorAndConnectionLives)
{
    const auto bundle = buildScorerBundle(4, 1);
    serve::Server server;
    server.registerScorer("toy", bundle.scorer);
    server.registerModel("toy", *bundle.model);

    std::vector<double> values;
    std::vector<double> measured;
    std::size_t rows = 0;
    gatherWireRun(bundle.db.snapshot(), bundle.testIds.front(), values,
                  measured, rows);

    // One connection: a score frame with a NaN IPC sample, then a
    // predict. The first is refused; the daemon answers the second.
    std::ostringstream frames;
    serve::StreamFrameSink client_out(frames);
    serve::ScoreRequest score;
    score.id = 1;
    score.scorer = "toy";
    score.events = bundle.model->events;
    score.rowCount = rows;
    score.values = values;
    score.measured = measured;
    score.measured[rows / 2] = std::nan("");
    ASSERT_TRUE(
        client_out.write(serve::encodeRequest(serve::Request(score)))
            .ok());
    serve::PredictRequest predict;
    predict.id = 2;
    predict.model = "toy";
    predict.events = bundle.model->events;
    predict.rowCount = rows;
    predict.values = values;
    ASSERT_TRUE(
        client_out.write(serve::encodeRequest(serve::Request(predict)))
            .ok());

    std::istringstream in(frames.str());
    serve::StreamFrameSource source(in);
    std::ostringstream out;
    serve::StreamFrameSink sink(out);
    const auto result = serve::serveConnection(server, source, sink);
    server.drain();
    EXPECT_EQ(result.framesRead, 2u);

    std::istringstream answers(out.str());
    serve::StreamFrameSource responses(answers);
    std::map<std::uint64_t, serve::Response> by_id;
    for (;;) {
        std::string payload;
        bool eof = false;
        ASSERT_TRUE(responses.next(payload, eof).ok());
        if (eof)
            break;
        auto decoded = serve::decodeResponse(std::move(payload));
        ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
        by_id[decoded.value().id] = std::move(decoded).value();
    }
    ASSERT_EQ(by_id.size(), 2u);
    EXPECT_EQ(by_id.at(1).code, util::StatusCode::DataError);
    EXPECT_NE(by_id.at(1).message.find("not finite"), std::string::npos)
        << by_id.at(1).message;
    EXPECT_EQ(by_id.at(2).code, util::StatusCode::Ok)
        << by_id.at(2).message;
    EXPECT_EQ(by_id.at(2).predictions.size(), rows);
}

TEST(ServeScore, FlagsFaultInjectedRunsAtLowFalsePositiveRate)
{
    MetricsGuard metrics;
    auto bundle = buildScorerBundle(20, 20);

    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);
    server.registerScorer("toy", bundle.scorer);

    const auto snap = bundle.db.snapshot();
    std::uint64_t next_id = 1;
    std::size_t clean_flagged = 0;
    std::size_t anomalous_flagged = 0;

    for (std::size_t t = 0; t < bundle.testIds.size(); ++t) {
        const auto run = bundle.testIds[t];
        std::vector<double> values;
        std::vector<double> measured;
        std::size_t rows = 0;
        gatherWireRun(snap, run, values, measured, rows);

        serve::ScoreRequest request;
        request.scorer = "toy";
        request.events = bundle.model->events;
        request.rowCount = rows;
        request.values = values;

        // Clean replay of the held-out run.
        request.id = next_id++;
        request.measured = measured;
        auto response = submitScore(server, request);
        ASSERT_EQ(response.code, util::StatusCode::Ok)
            << response.message;
        if (response.anomalous)
            ++clean_flagged;

        // Fault injection, alternating the two anomaly axes: halved
        // IPC (the counters no longer explain the rate) and a
        // time-reversed series (the shape left every family).
        request.id = next_id++;
        std::vector<double> faulty = measured;
        if (t % 2 == 0) {
            for (auto &v : faulty)
                v *= 0.75;
        } else {
            std::reverse(faulty.begin(), faulty.end());
        }
        request.measured = std::move(faulty);
        response = submitScore(server, request);
        ASSERT_EQ(response.code, util::StatusCode::Ok)
            << response.message;
        if (response.anomalous)
            ++anomalous_flagged;
    }

    const std::size_t tests = bundle.testIds.size();
    // Acceptance: <= 5% false positives, >= 90% detections.
    EXPECT_LE(clean_flagged, tests / 20)
        << clean_flagged << " of " << tests << " clean runs flagged";
    EXPECT_GE(anomalous_flagged, tests - tests / 10)
        << anomalous_flagged << " of " << tests
        << " fault-injected runs flagged";

    auto &registry = metrics.registry;
    EXPECT_EQ(registry.counter("serve.scores").value(), 2 * tests);
    EXPECT_GE(registry.counter("mining.scores").value(), 2 * tests);
    EXPECT_EQ(registry.counter("serve.anomalies_flagged").value(),
              anomalous_flagged + clean_flagged);
    EXPECT_EQ(registry.counter("mining.anomalies_flagged").value(),
              anomalous_flagged + clean_flagged);
    server.drain();
}

TEST(ServeScore, VerdictsBitIdenticalAcrossThreadCounts)
{
    auto bundle = buildScorerBundle(10, 4);
    const auto snap = bundle.db.snapshot();

    std::vector<double> baseline_z;
    std::vector<double> baseline_distance;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadCountGuard guard(threads);
        std::vector<double> zs;
        std::vector<double> distances;
        for (const auto id : bundle.testIds) {
            auto scored = bundle.scorer->scoreRun(
                snap, id, pmu::EventCatalog::instance());
            ASSERT_TRUE(scored.ok()) << scored.status().toString();
            zs.push_back(scored.value().residualZ);
            distances.push_back(scored.value().signatureDistance);
        }
        if (baseline_z.empty()) {
            baseline_z = zs;
            baseline_distance = distances;
        } else {
            EXPECT_EQ(std::memcmp(zs.data(), baseline_z.data(),
                                  zs.size() * sizeof(double)),
                      0)
                << threads << " threads";
            EXPECT_EQ(std::memcmp(distances.data(),
                                  baseline_distance.data(),
                                  distances.size() * sizeof(double)),
                      0)
                << threads << " threads";
        }
    }
}

} // namespace
