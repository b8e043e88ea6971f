/**
 * @file
 * The importance ranker (paper Section III-C).
 *
 * Builds the performance model IPC = perf(e1..en) with SGBRT, quantifies
 * each event's Friedman relative influence (Eqs. 10-11), then runs EIR —
 * Event Importance Refinement: repeatedly drop the 10 least important
 * events and retrain, tracking held-out model error (Eq. 14), until the
 * Most Accurate Performance Model (MAPM) is found. The ranking reported
 * is the MAPM's.
 */

#ifndef CMINER_CORE_IMPORTANCE_H
#define CMINER_CORE_IMPORTANCE_H

#include <string>
#include <vector>

#include "core/collector.h"
#include "ml/dataset_view.h"
#include "ml/gbrt.h"
#include "pmu/event.h"
#include "util/rng.h"

namespace cminer::core {

/** EIR policy knobs. */
struct ImportanceOptions
{
    cminer::ml::GbrtParams gbrt;
    /** Events dropped per EIR iteration (paper: 10). */
    std::size_t dropPerIteration = 10;
    /** Stop EIR once this few events remain. */
    std::size_t minEvents = 19;
    /**
     * Cross-validation folds per EIR iteration. 1 (the paper's
     * protocol) trains a single model on one shuffled train/test split;
     * >= 2 trains that many k-fold models — concurrently on the thread
     * pool, each fold with its own Rng stream seeded deterministically
     * from the parent seed — and averages errors and importances in
     * fold order, so the result is bit-identical for any thread count.
     */
    std::size_t cvFolds = 1;
};

/** One point of the EIR error curve (paper Fig. 8). */
struct EirPoint
{
    std::size_t eventCount = 0;
    double testErrorPercent = 0.0; ///< MAPE on held-out rows (Eq. 14)
};

/** Outcome of an EIR run. */
struct ImportanceResult
{
    /** Error curve over the refinement iterations. */
    std::vector<EirPoint> curve;
    /** Ranking (normalized to 100%) from the most accurate model. */
    std::vector<cminer::ml::FeatureImportance> ranking;
    /** Held-out error of the MAPM. */
    double mapmErrorPercent = 0.0;
    /** Number of input events of the MAPM. */
    std::size_t mapmEventCount = 0;
    /** Feature names of the MAPM (for retraining downstream models). */
    std::vector<std::string> mapmFeatures;
};

/**
 * Quantifies, ranks, and prunes events by importance.
 */
class ImportanceRanker
{
  public:
    explicit ImportanceRanker(ImportanceOptions options = {});

    /** Options in effect. */
    const ImportanceOptions &options() const { return options_; }

    /**
     * Assemble the training dataset from collected (and ideally cleaned)
     * runs: one row per sampling interval, one feature per event (named
     * by the event's paper abbreviation), target = measured IPC.
     *
     * All runs must have measured the same event list.
     */
    static cminer::ml::Dataset
    buildDataset(const std::vector<CollectedRun> &runs,
                 const cminer::pmu::EventCatalog &catalog);

    /**
     * Assemble the same dataset straight from the store: feature
     * columns are filled from the runs' level-2 table column spans
     * (zero intermediate TimeSeries copies). All runs must have
     * measured the same event list, with the IPC series last.
     */
    static cminer::ml::Dataset
    buildDatasetFromStore(const cminer::store::Database &db,
                          const std::vector<cminer::store::RunId> &ids,
                          const cminer::pmu::EventCatalog &catalog);

    /**
     * One SGBRT fit: ranking plus held-out error, no refinement.
     */
    std::pair<std::vector<cminer::ml::FeatureImportance>, double>
    fitOnce(const cminer::ml::DatasetView &data,
            cminer::util::Rng &rng) const;

    /**
     * Full EIR loop.
     *
     * @param data dataset over the complete event list
     * @param rng split/subsample randomness
     */
    ImportanceResult run(const cminer::ml::Dataset &data,
                         cminer::util::Rng &rng) const;

    /**
     * Train the MAPM model itself (SGBRT on the MAPM feature set) — the
     * performance oracle the interaction ranker needs.
     */
    cminer::ml::Gbrt trainMapm(const cminer::ml::Dataset &data,
                               const ImportanceResult &result,
                               cminer::util::Rng &rng) const;

  private:
    ImportanceOptions options_;
};

} // namespace cminer::core

#endif // CMINER_CORE_IMPORTANCE_H
