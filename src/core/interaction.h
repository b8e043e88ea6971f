/**
 * @file
 * The interaction ranker (paper Section III-D).
 *
 * For each pair of important events, predictions of the performance
 * model are collected while the pair takes its observed values and every
 * other event is pinned to its mean. A *linear* model is fit to those
 * predictions; its residual variance (Eq. 12) is the pair's interaction
 * intensity — zero when the pair's combined effect is additive, large
 * when it is not. Intensities are normalized across pairs (Eq. 13).
 *
 * The same machinery ranks (configuration parameter, event) pairs for
 * the tuning case study (Fig. 13) when the dataset carries parameter
 * columns.
 */

#ifndef CMINER_CORE_INTERACTION_H
#define CMINER_CORE_INTERACTION_H

#include <string>
#include <utility>
#include <vector>

#include "ml/dataset_view.h"
#include "ml/gbrt.h"

namespace cminer::core {

/** Interaction-ranking knobs. */
struct InteractionOptions
{
    /** How many top-ranked events to pair up in rankTopEvents. */
    std::size_t topEvents = 10;
    /** Max observation rows sampled per pair (stride-sampled). */
    std::size_t maxSamples = 400;
};

/** One ranked pair. */
struct PairInteraction
{
    std::string first;
    std::string second;
    double residualVariance = 0.0;  ///< Eq. 12
    double importancePercent = 0.0; ///< Eq. 13, sums to 100 across pairs
};

/** All pairs, sorted by descending importance. */
struct InteractionResult
{
    std::vector<PairInteraction> pairs;

    /** The `n` most intense pairs. */
    std::vector<PairInteraction> top(std::size_t n) const;
};

/**
 * Quantifies pairwise interaction intensity through a fitted
 * performance model.
 */
class InteractionRanker
{
  public:
    explicit InteractionRanker(InteractionOptions options = {});

    /** Options in effect. */
    const InteractionOptions &options() const { return options_; }

    /**
     * Rank explicit feature pairs. Each distinct event's univariate
     * response is probed once and shared by every pair naming it, so
     * a sampled row costs one joint probe per pair plus one probe per
     * distinct event.
     *
     * @param model fitted performance model (the MAPM)
     * @param data the dataset the model was trained on (supplies the
     *        observed pair values and the feature means)
     * @param pairs feature-name pairs to evaluate; a pair naming one
     *        event twice is fatal
     */
    InteractionResult
    rankPairs(const cminer::ml::Gbrt &model,
              const cminer::ml::DatasetView &data,
              const std::vector<std::pair<std::string, std::string>>
                  &pairs) const;

    /**
     * Rank all pairs among the given events (typically the MAPM's top-10
     * importance ranking).
     */
    InteractionResult
    rankTopEvents(const cminer::ml::Gbrt &model,
                  const cminer::ml::DatasetView &data,
                  const std::vector<std::string> &events) const;

  private:
    InteractionOptions options_;
};

} // namespace cminer::core

#endif // CMINER_CORE_INTERACTION_H
