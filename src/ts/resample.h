/**
 * @file
 * Resampling: stretch/compress a series to a target length. Used when
 * comparing series from runs with very different lengths.
 */

#ifndef CMINER_TS_RESAMPLE_H
#define CMINER_TS_RESAMPLE_H

#include <cstddef>
#include <vector>

namespace cminer::ts {

/**
 * Linear-interpolation resample to exactly `target_length` points.
 *
 * @param values source values (non-empty)
 * @param target_length desired length (>= 1)
 */
std::vector<double> resampleLinear(const std::vector<double> &values,
                                   std::size_t target_length);

} // namespace cminer::ts

#endif // CMINER_TS_RESAMPLE_H
