/**
 * @file
 * Regression quality metrics.
 *
 * The paper's model error (Eq. 14) is the mean absolute percentage error
 * between measured and predicted IPC; RMSE is provided for the tests and
 * ablations.
 */

#ifndef CMINER_ML_METRICS_H
#define CMINER_ML_METRICS_H

#include <span>

namespace cminer::ml {

/**
 * Mean absolute percentage error (paper Eq. 14), in percent.
 *
 * Rows whose actual value is ~0 are skipped to keep the ratio defined.
 */
double mape(std::span<const double> actual,
            std::span<const double> predicted);

/** Root mean squared error. */
double rmse(std::span<const double> actual,
            std::span<const double> predicted);

/**
 * Residual variance per the interaction ranker (paper Eq. 12):
 * mean squared residual between predictions and observations.
 */
double residualVariance(std::span<const double> actual,
                        std::span<const double> predicted);

} // namespace cminer::ml

#endif // CMINER_ML_METRICS_H
