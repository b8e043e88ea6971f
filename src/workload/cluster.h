/**
 * @file
 * The simulated experimental cluster (paper Section IV-A): one master
 * and three slave nodes running Spark jobs. Execution time is the slowest
 * node plus scheduling overhead.
 */

#ifndef CMINER_WORKLOAD_CLUSTER_H
#define CMINER_WORKLOAD_CLUSTER_H

#include "util/rng.h"
#include "workload/benchmark.h"
#include "workload/spark_config.h"

namespace cminer::workload {

/**
 * A four-node Spark/Mesos cluster, simulated.
 */
class SimulatedCluster
{
  public:
    /**
     * Execution time of one job: the benchmark's mean run length under
     * `spark_config`, with per-node OS jitter and straggling, on the
     * slowest of the three slaves, plus scheduling overhead (e.g. the
     * method-B parameter sweeps of Fig. 15).
     */
    double runJobTimeOnly(const SyntheticBenchmark &benchmark,
                          const SparkConfig &spark_config,
                          cminer::util::Rng &rng) const;
};

} // namespace cminer::workload

#endif // CMINER_WORKLOAD_CLUSTER_H
