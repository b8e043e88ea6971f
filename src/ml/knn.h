/**
 * @file
 * K-nearest-neighbor imputation, the cleaner's temporal imputer: a
 * missing value in a time series is replaced by the average of the k
 * nearest *observed* neighbors by time index (paper Section III-B2,
 * k = 5).
 */

#ifndef CMINER_ML_KNN_H
#define CMINER_ML_KNN_H

#include <cstddef>
#include <span>
#include <vector>

namespace cminer::ml {

/**
 * Impute missing entries of a series by temporal KNN.
 *
 * @param values the series; entries at `missing` indices are ignored as
 *        inputs and overwritten with imputed values
 * @param missing distinct indices to impute (sorted or not; must not
 *        repeat — imputations run concurrently, one writer per slot)
 * @param k neighborhood size
 * @return number of entries actually imputed (0 when every index was
 *         missing, in which case nothing can be inferred)
 */
std::size_t knnImputeSeries(std::span<double> values,
                            const std::vector<std::size_t> &missing,
                            std::size_t k);

} // namespace cminer::ml

#endif // CMINER_ML_KNN_H
