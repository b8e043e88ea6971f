#include "mining/anomaly.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/collector.h"
#include "ml/gbrt.h"
#include "stats/descriptive.h"
#include "util/binary_io.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace cminer::mining {

using cminer::util::BinaryReader;
using cminer::util::BinaryWriter;
using cminer::util::Status;
using cminer::util::StatusOr;

namespace {

/** Index of the first NaN or infinite value, if any. */
std::optional<std::size_t>
firstNonFinite(std::span<const double> values)
{
    for (std::size_t i = 0; i < values.size(); ++i)
        if (!std::isfinite(values[i]))
            return i;
    return std::nullopt;
}

/** Shared structural validation for save and load. */
Status
validateArtifact(const ClusterArtifact &artifact)
{
    if (artifact.signature.event.empty())
        return Status::dataError("cluster artifact has no signature "
                                 "event");
    if (artifact.signature.length < 2)
        return Status::dataError(util::format(
            "cluster signature length %zu is below the minimum of 2",
            artifact.signature.length));
    if (!(artifact.signature.bandFraction >= 0.0 &&
          artifact.signature.bandFraction <= 1.0))
        return Status::dataError(util::format(
            "cluster band fraction %g is outside [0, 1]",
            artifact.signature.bandFraction));
    for (std::size_t f = 0; f < artifact.families.size(); ++f) {
        if (artifact.families[f].signature.size() !=
            artifact.signature.length)
            return Status::dataError(util::format(
                "family %zu signature has %zu samples (artifact "
                "length %zu)",
                f, artifact.families[f].signature.size(),
                artifact.signature.length));
        if (firstNonFinite(artifact.families[f].signature))
            return Status::dataError(util::format(
                "family %zu signature carries a non-finite sample", f));
    }
    const double thresholds[] = {
        artifact.residualMean, artifact.residualStddev,
        artifact.residualZThreshold, artifact.signatureThreshold};
    for (double v : thresholds)
        if (!std::isfinite(v))
            return Status::dataError(
                "cluster calibration carries a non-finite value");
    if (artifact.residualStddev < 0.0 ||
        artifact.residualZThreshold < 0.0 ||
        artifact.signatureThreshold < 0.0)
        return Status::dataError(
            "cluster calibration carries a negative threshold");
    if (artifact.residualZThreshold > 0.0 &&
        artifact.residualStddev <= 0.0)
        return Status::dataError("calibrated cluster artifact has a "
                                 "zero residual stddev");
    return Status::okStatus();
}

} // namespace

Status
saveClusterArtifact(const ClusterArtifact &artifact,
                    const std::string &path)
{
    util::Span span("mining.cluster_save");
    span.label("path", path);
    if (Status valid = validateArtifact(artifact); !valid.ok())
        return valid.withContext("save cluster " + path);

    BinaryWriter out(cluster_artifact_kind, cluster_artifact_version);

    out.beginSection("meta");
    out.str(artifact.benchmark);
    out.str(artifact.microarch);
    out.str(artifact.signature.event);
    out.u64(artifact.signature.length);
    out.u8(artifact.signature.zNormalize ? 1 : 0);
    out.f64(artifact.signature.bandFraction);
    out.endSection();

    out.beginSection("families");
    out.u64(artifact.families.size());
    for (const auto &family : artifact.families) {
        out.u64(family.medoidRun);
        out.str(family.program);
        out.u64(family.memberCount);
        out.u64(family.signature.size());
        out.f64Span(family.signature);
    }
    out.endSection();

    out.beginSection("calibration");
    out.f64(artifact.residualMean);
    out.f64(artifact.residualStddev);
    out.f64(artifact.residualZThreshold);
    out.f64(artifact.signatureThreshold);
    out.endSection();

    Status status = out.writeFile(path);
    if (!status.ok())
        return status.withContext("save cluster " + path);
    util::count("mining.cluster_saves");
    return status;
}

StatusOr<ClusterArtifact>
loadClusterArtifact(const std::string &path)
{
    util::Span span("mining.cluster_load");
    span.label("path", path);
    auto opened = BinaryReader::open(path, cluster_artifact_kind);
    // Every open error already names the path.
    if (!opened.ok())
        return opened.status().withContext("load cluster");
    BinaryReader in = std::move(opened).value();
    if (in.artifactVersion() != cluster_artifact_version)
        return in
            .fail(util::format("unsupported cluster artifact version "
                               "%u (this build reads %u)",
                               in.artifactVersion(),
                               cluster_artifact_version))
            .withContext("load cluster " + path);

    ClusterArtifact artifact;
    bool seen_meta = false;
    bool seen_families = false;
    bool seen_calibration = false;
    for (std::uint64_t s = 0; s < in.sectionCount() && in.ok(); ++s) {
        const std::string section = in.beginSection();
        if (!in.ok())
            break;
        if (section == "meta") {
            artifact.benchmark = in.str();
            artifact.microarch = in.str();
            artifact.signature.event = in.str();
            artifact.signature.length =
                static_cast<std::size_t>(in.u64());
            artifact.signature.zNormalize = in.u8() != 0;
            artifact.signature.bandFraction = in.f64();
            seen_meta = in.ok();
        } else if (section == "families") {
            // Each family is at least 4 u64 fields, so the declared
            // count is bounded by the bytes remaining.
            const std::uint64_t n = in.count(32);
            artifact.families.reserve(n);
            for (std::uint64_t f = 0; f < n && in.ok(); ++f) {
                ClusterFamily family;
                family.medoidRun = in.u64();
                family.program = in.str();
                family.memberCount = in.u64();
                const std::uint64_t samples = in.count(sizeof(double));
                family.signature = in.f64Vec(samples);
                artifact.families.push_back(std::move(family));
            }
            seen_families = in.ok();
        } else if (section == "calibration") {
            artifact.residualMean = in.f64();
            artifact.residualStddev = in.f64();
            artifact.residualZThreshold = in.f64();
            artifact.signatureThreshold = in.f64();
            seen_calibration = in.ok();
        }
        // Unknown sections from newer writers are skipped by size.
        in.endSection();
    }
    if (!in.ok())
        return in.status().withContext("load cluster " + path);
    if (!seen_meta || !seen_families || !seen_calibration)
        return Status::dataError("missing required section "
                                 "(meta/families/calibration)")
            .withContext("load cluster " + path);
    if (Status valid = validateArtifact(artifact); !valid.ok())
        return valid.withContext("load cluster " + path);
    util::count("mining.cluster_loads");
    return artifact;
}

// ---- AnomalyScorer --------------------------------------------------

AnomalyScorer::AnomalyScorer(
    std::shared_ptr<const cminer::core::MapmArtifact> model,
    ClusterArtifact clusters)
    : model_(std::move(model)), clusters_(std::move(clusters))
{
    CM_ASSERT(model_ != nullptr);
    CM_ASSERT(model_->model.fitted());
    medoids_.reserve(clusters_.families.size());
    for (const auto &family : clusters_.families)
        medoids_.emplace_back(family.signature);
}

double
AnomalyScorer::runResidual(std::span<const double> predicted,
                           std::span<const double> measured)
{
    CM_ASSERT(predicted.size() == measured.size());
    CM_ASSERT(!predicted.empty());
    double sum = 0.0;
    for (std::size_t i = 0; i < predicted.size(); ++i)
        sum += measured[i] - predicted[i];
    return sum / static_cast<double>(predicted.size());
}

StatusOr<ScoreResult>
AnomalyScorer::verdict(std::span<const double> predictions,
                       std::span<const double> measured) const
{
    ScoreResult result;
    result.meanResidual = runResidual(predictions, measured);
    result.residualZ =
        std::abs(result.meanResidual - clusters_.residualMean) /
        clusters_.residualStddev;
    result.residualFlag =
        result.residualZ > clusters_.residualZThreshold;

    if (!medoids_.empty()) {
        const std::vector<double> signature =
            makeSignature(measured, clusters_.signature);
        // Finite samples can still overflow the z-normalization.
        if (firstNonFinite(signature))
            return Status::dataError(
                "score: the measured IPC series overflows its signature");
        const NearestMedoid nearest =
            nearestMedoid(signature, medoids_, clusters_.signature);
        result.signatureDistance = nearest.distance;
        result.familyIndex = nearest.index;
        result.dtwEvaluations = nearest.dtwEvaluations;
        result.signatureFlag =
            nearest.distance > clusters_.signatureThreshold;
    }
    result.anomalous = result.residualFlag || result.signatureFlag;
    return result;
}

StatusOr<ScoreResult>
AnomalyScorer::score(std::span<const double> values,
                     std::size_t row_count,
                     std::span<const double> measured) const
{
    util::Span span("mining.score");
    span.number("rows", static_cast<double>(row_count));
    if (clusters_.residualZThreshold <= 0.0)
        return Status::dataError(
            "cluster artifact is uncalibrated; refusing to score");
    if (row_count == 0)
        return Status::dataError("score: run carries no rows");
    const std::size_t events = model_->events.size();
    if (values.size() != row_count * events)
        return Status::dataError(util::format(
            "score: value count %zu != rows %zu x events %zu",
            values.size(), row_count, events));
    if (measured.size() != row_count)
        return Status::dataError(util::format(
            "score: measured count %zu != rows %zu", measured.size(),
            row_count));
    if (const auto bad = firstNonFinite(measured))
        return Status::dataError(util::format(
            "score: measured IPC row %zu is not finite (%g)", *bad,
            measured[*bad]));
    if (!clusters_.families.empty() &&
        clusters_.signature.event != core::ipc_series_name)
        return Status::dataError(
            "score: cluster signatures were built over '" +
            clusters_.signature.event +
            "', but the wire path only carries the measured IPC "
            "series");

    // The walk reads the request's row-major matrix where it sits.
    std::vector<double> predictions(row_count);
    model_->model.predictAll(
        row_count, events,
        [&](std::size_t feature, std::size_t row) {
            return values[row * events + feature];
        },
        predictions);
    auto scored = verdict(predictions, measured);
    if (!scored.ok())
        return scored;
    util::count("mining.scores");
    if (scored.value().anomalous)
        util::count("mining.anomalies_flagged");
    return scored;
}

namespace {

/** Lower bound on the learned z threshold. */
constexpr double kZThresholdFloor = 6.0;
/** Learned z threshold = max(floor, margin * worst training z). */
constexpr double kZMargin = 1.5;
/** Signature threshold = margin * worst training distance. */
constexpr double kSignatureMargin = 1.5;

/**
 * One stored run's feature columns in model event order, read in place
 * from the snapshot, plus its measured IPC. Event names resolve through
 * the catalog's paper abbreviations, matching the dataset-build
 * convention; each stored name is resolved once per run.
 */
Status
runColumns(const cminer::store::StoreSnapshot &snap, cminer::store::RunId id,
           const cminer::pmu::EventCatalog &catalog,
           const cminer::core::MapmArtifact &model,
           std::vector<const double *> &columns,
           std::span<const double> &measured)
{
    const auto &events = snap.runInfo(id).events;
    if (events.size() < 2 || events.back() != core::ipc_series_name)
        return Status::dataError(util::format(
            "run %llu does not end in the %s series",
            static_cast<unsigned long long>(id),
            core::ipc_series_name));
    std::vector<std::string_view> names;
    names.reserve(events.size() - 1);
    for (std::size_t s = 0; s + 1 < events.size(); ++s) {
        const auto eid = catalog.findByName(events[s]);
        names.push_back(eid ? catalog.info(*eid).abbrev : events[s]);
    }
    columns.clear();
    columns.reserve(model.events.size());
    for (const auto &wanted : model.events) {
        const auto found = std::find(names.begin(), names.end(), wanted);
        if (found == names.end())
            return Status::dataError(util::format(
                "run %llu lacks model event '%s'",
                static_cast<unsigned long long>(id), wanted.c_str()));
        columns.push_back(
            snap.values(id, static_cast<std::size_t>(found - names.begin()))
                .data());
    }
    measured = snap.values(id, events.size() - 1);
    if (const auto bad = firstNonFinite(measured))
        return Status::dataError(util::format(
            "run %llu: measured %s sample %zu is not finite (%g)",
            static_cast<unsigned long long>(id), core::ipc_series_name,
            *bad, measured[*bad]));
    return Status::okStatus();
}

/**
 * The model's prediction for each of a stored run's `rows` rows, read
 * from the run's columns in place (every series of a run has the
 * run's length).
 */
std::vector<double>
predictColumns(const ml::Gbrt &model,
               const std::vector<const double *> &columns, std::size_t rows)
{
    std::vector<double> predictions(rows);
    model.predictAll(
        rows, columns.size(),
        [&](std::size_t feature, std::size_t row) {
            return columns[feature][row];
        },
        predictions);
    return predictions;
}

} // namespace

StatusOr<ScoreResult>
AnomalyScorer::scoreRun(const cminer::store::StoreSnapshot &snap,
                        cminer::store::RunId id,
                        const cminer::pmu::EventCatalog &catalog) const
{
    util::Span span("mining.score");
    if (clusters_.residualZThreshold <= 0.0)
        return Status::dataError(
            "cluster artifact is uncalibrated; refusing to score");
    std::vector<const double *> columns;
    std::span<const double> measured;
    if (Status found =
            runColumns(snap, id, catalog, *model_, columns, measured);
        !found.ok())
        return found;
    auto scored = verdict(
        predictColumns(model_->model, columns, measured.size()), measured);
    if (!scored.ok())
        return scored;
    util::count("mining.scores");
    if (scored.value().anomalous)
        util::count("mining.anomalies_flagged");
    return scored;
}

StatusOr<AnomalyScorer>
AnomalyScorer::calibrate(
    std::shared_ptr<const cminer::core::MapmArtifact> model,
    ClusterArtifact clusters, const cminer::store::StoreSnapshot &snap,
    const std::vector<cminer::store::RunId> &ids,
    const cminer::pmu::EventCatalog &catalog)
{
    if (model == nullptr || !model->model.fitted())
        return Status::dataError(
            "calibrate: the MAPM model is missing or unfitted");
    if (ids.size() < 2)
        return Status::dataError(util::format(
            "calibrate: %zu training runs (need at least 2 for a "
            "residual distribution)",
            ids.size()));
    if (Status valid = validateArtifact(clusters); !valid.ok())
        return valid.withContext("calibrate");

    std::vector<std::span<const double>> medoids;
    medoids.reserve(clusters.families.size());
    for (const auto &family : clusters.families)
        medoids.emplace_back(family.signature);

    std::vector<double> residuals;
    residuals.reserve(ids.size());
    double max_distance = 0.0;
    std::vector<const double *> columns;
    for (const auto id : ids) {
        std::span<const double> measured;
        if (Status found =
                runColumns(snap, id, catalog, *model, columns, measured);
            !found.ok())
            return found.withContext("calibrate");
        residuals.push_back(runResidual(
            predictColumns(model->model, columns, measured.size()),
            measured));
        if (!medoids.empty()) {
            const std::vector<double> signature =
                makeSignature(measured, clusters.signature);
            const NearestMedoid nearest =
                nearestMedoid(signature, medoids, clusters.signature);
            max_distance = std::max(max_distance, nearest.distance);
        }
    }

    clusters.residualMean = stats::mean(residuals);
    // Floor the spread: a degenerate training set (bit-identical
    // replays) must not turn every future run into a division by ~0.
    clusters.residualStddev =
        std::max(stats::stddev(residuals, false), 1e-9);
    double max_z = 0.0;
    for (double r : residuals)
        max_z = std::max(max_z,
                         std::abs(r - clusters.residualMean) /
                             clusters.residualStddev);
    clusters.residualZThreshold =
        std::max(kZThresholdFloor, kZMargin * max_z);
    clusters.signatureThreshold =
        medoids.empty() ? 0.0
                        : std::max(kSignatureMargin * max_distance, 1e-9);
    return AnomalyScorer(std::move(model), std::move(clusters));
}

} // namespace cminer::mining
