/**
 * @file
 * Anomaly surveillance against a mined MAPM (DESIGN.md §17).
 *
 * Following the HPC-security survey's monitoring framing (PAPERS.md),
 * an incoming run is scored on two independent axes:
 *
 *  1. **Prediction residual**: the run's mean (measured - predicted)
 *     IPC under the benchmark's MAPM, standardized against the
 *     residual distribution observed on the training runs. A run whose
 *     z-score exceeds the calibrated threshold performs differently
 *     than the model says it should.
 *  2. **Counter signature**: DTW distance from the run's signature
 *     (mining/distance.h) to the nearest workload-family medoid,
 *     against a threshold calibrated from the training runs' own
 *     distances. A run whose shape left every known family is
 *     anomalous even when its average behavior still fits the model —
 *     e.g. a time-reversed or phase-scrambled run.
 *
 * Both the family medoids and the calibrated thresholds persist in one
 * `cluster-artifact` checkpoint (PR-5 container), so a serve daemon
 * can score without the training store. Scoring emits the
 * `mining.scores` / `mining.anomalies_flagged` counters and a
 * `mining.score` trace span.
 */

#ifndef CMINER_MINING_ANOMALY_H
#define CMINER_MINING_ANOMALY_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "mining/distance.h"
#include "pmu/event.h"
#include "store/database.h"
#include "util/status.h"

namespace cminer::mining {

/** Artifact kind tag of a cluster/surveillance checkpoint. */
inline constexpr const char *cluster_artifact_kind = "cluster-artifact";

/** Schema version of the cluster payload. */
inline constexpr std::uint32_t cluster_artifact_version = 1;

/** One workload family: a medoid run and its signature. */
struct ClusterFamily
{
    /** Store run id of the medoid. */
    std::uint64_t medoidRun = 0;
    /** Program of the medoid run. */
    std::string program;
    /** Runs assigned to this family when it was built. */
    std::uint64_t memberCount = 0;
    /** The medoid's signature (signature options' length samples). */
    std::vector<double> signature;
};

/**
 * Everything anomaly surveillance needs from one clustering run: the
 * family medoids plus the thresholds calibrated from the training
 * residual/distance distributions. residualZThreshold == 0 marks an
 * uncalibrated artifact (clustering only; scoring refuses it).
 */
struct ClusterArtifact
{
    /** Benchmark scope of the calibration ("" = whole store). */
    std::string benchmark;
    /** Microarchitecture of the profiled machine. */
    std::string microarch;
    /** How signatures were built (and must be built when scoring). */
    SignatureOptions signature;
    /** Workload families, in medoid order. */
    std::vector<ClusterFamily> families;

    /** Mean per-run residual over the training runs. */
    double residualMean = 0.0;
    /** Stddev of per-run residuals over the training runs (floored). */
    double residualStddev = 0.0;
    /** Flag when |r - mean| / stddev exceeds this; 0 = uncalibrated. */
    double residualZThreshold = 0.0;
    /** Flag when the nearest-medoid DTW distance exceeds this. */
    double signatureThreshold = 0.0;
};

/** Save atomically as a `cluster-artifact` checkpoint container. */
cminer::util::Status saveClusterArtifact(const ClusterArtifact &artifact,
                                         const std::string &path);

/** Bounded, validated load of saveClusterArtifact() output. */
cminer::util::StatusOr<ClusterArtifact>
loadClusterArtifact(const std::string &path);

/** Verdict for one scored run. */
struct ScoreResult
{
    /** residualFlag || signatureFlag. */
    bool anomalous = false;
    /** The residual z-score exceeded its threshold. */
    bool residualFlag = false;
    /** The signature distance exceeded its threshold. */
    bool signatureFlag = false;
    /** Mean (measured - predicted) over the run's rows. */
    double meanResidual = 0.0;
    /** Standardized residual |r - mean| / stddev. */
    double residualZ = 0.0;
    /** DTW distance to the nearest family medoid (0 if no families). */
    double signatureDistance = 0.0;
    /** Index of the nearest family. */
    std::size_t familyIndex = 0;
    /** Full DTW evaluations spent on the medoid search. */
    std::size_t dtwEvaluations = 0;
};

/**
 * Scores runs against one benchmark's MAPM + cluster artifact pair.
 * Immutable after construction; safe to share across threads.
 */
class AnomalyScorer
{
  public:
    /**
     * @param model the benchmark's MAPM (must be fitted)
     * @param clusters calibrated cluster artifact
     *        (residualZThreshold > 0)
     */
    AnomalyScorer(std::shared_ptr<const cminer::core::MapmArtifact> model,
                  ClusterArtifact clusters);

    // medoids_ views the families' signatures. A move keeps the views
    // valid (each vector's buffer moves with it); a copy would not.
    AnomalyScorer(const AnomalyScorer &) = delete;
    AnomalyScorer &operator=(const AnomalyScorer &) = delete;
    AnomalyScorer(AnomalyScorer &&) = default;
    AnomalyScorer &operator=(AnomalyScorer &&) = default;

    const ClusterArtifact &clusters() const { return clusters_; }
    const cminer::core::MapmArtifact &model() const { return *model_; }

    /**
     * Score one run from its raw feature matrix.
     *
     * @param values row-major row_count x model-events feature matrix,
     *        columns exactly the artifact's kept-event list in order
     * @param row_count sampled intervals in the run (>= 1)
     * @param measured the run's measured IPC, one value per row; also
     *        the signature source, so the cluster artifact must have
     *        been built over the IPC series
     */
    cminer::util::StatusOr<ScoreResult>
    score(std::span<const double> values, std::size_t row_count,
          std::span<const double> measured) const;

    /**
     * Score one stored run, projecting its events onto the model's
     * kept-event list (names resolved through the catalog's paper
     * abbreviations, the dataset-build convention).
     */
    cminer::util::StatusOr<ScoreResult>
    scoreRun(const cminer::store::StoreSnapshot &snap,
             cminer::store::RunId id,
             const cminer::pmu::EventCatalog &catalog) const;

    /** Per-run residual statistic: mean(measured - predicted). */
    static double runResidual(std::span<const double> predicted,
                              std::span<const double> measured);

    /**
     * Learn the thresholds from training runs: per-run residuals give
     * (mean, stddev, z threshold); nearest-medoid distances give the
     * signature threshold. The z threshold is max(6, 1.5 x the worst
     * training z) and the signature threshold 1.5 x the worst training
     * distance. Returns the scorer with the calibration written back
     * into its cluster artifact (ready to save).
     *
     * @param model the benchmark's MAPM
     * @param clusters families from the clustering pass (calibration
     *        fields are overwritten)
     * @param snap pinned view of the training store
     * @param ids training runs (the ones the model was mined from)
     * @param catalog event-name resolution for the dataset build
     */
    static cminer::util::StatusOr<AnomalyScorer>
    calibrate(std::shared_ptr<const cminer::core::MapmArtifact> model,
              ClusterArtifact clusters,
              const cminer::store::StoreSnapshot &snap,
              const std::vector<cminer::store::RunId> &ids,
              const cminer::pmu::EventCatalog &catalog);

  private:
    /** Residual + signature verdict for one run's predictions. */
    cminer::util::StatusOr<ScoreResult>
    verdict(std::span<const double> predictions,
            std::span<const double> measured) const;

    std::shared_ptr<const cminer::core::MapmArtifact> model_;
    ClusterArtifact clusters_;
    /** clusters_.families' signatures, in family order. */
    std::vector<std::span<const double>> medoids_;
};

} // namespace cminer::mining

#endif // CMINER_MINING_ANOMALY_H
