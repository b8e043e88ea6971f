/**
 * @file
 * The scalar dispatch table: the reference implementations every other
 * level is differentially tested against, and the only level available
 * off x86.
 */

#include "simd/simd.h"

#include "simd/scalar_impl.h"

namespace cminer::simd::detail {

const KernelTable &
scalarTable()
{
    static const KernelTable table = {
        scalar_impl::squaredDistanceBlocked,
        scalar_impl::lbKeoghSumBlocked,
        scalar_impl::windowMinMaxSeq,
        scalar_impl::minMaxFiniteSeq,
        scalar_impl::countLessEqualSeq,
        scalar_impl::lowerBoundBinsSeq,
        scalar_impl::equiWidthBinsSeq,
    };
    return table;
}

} // namespace cminer::simd::detail
