#include "workload/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace cminer::workload {

using cminer::util::Rng;

namespace {

constexpr std::size_t kSlaveNodes = 3;
/** Fixed job submission + scheduling overhead. */
constexpr double kSchedulingOverheadMs = 350.0;
/** Lognormal sigma of per-node straggling. */
constexpr double kStragglerSigma = 0.06;

} // namespace

double
SimulatedCluster::runJobTimeOnly(const SyntheticBenchmark &benchmark,
                                 const SparkConfig &spark_config,
                                 Rng &rng) const
{
    // Mean intervals scaled by the config factor, and OS jitter and
    // straggling per node.
    const double base_ms = benchmark.spec().meanIntervals *
                           benchmark.spec().intervalMs *
                           benchmark.durationFactor(spark_config);
    double slowest = 0.0;
    for (std::size_t node = 0; node < kSlaveNodes; ++node) {
        const double jitter = std::exp(
            rng.gaussian(0.0, benchmark.spec().lengthJitter));
        const double straggle =
            std::exp(rng.gaussian(0.0, kStragglerSigma));
        slowest = std::max(slowest, base_ms * jitter * straggle);
    }
    return slowest + kSchedulingOverheadMs;
}

} // namespace cminer::workload
