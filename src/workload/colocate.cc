#include "workload/colocate.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace cminer::workload {

using cminer::pmu::EventCatalog;
using cminer::pmu::EventId;
using cminer::pmu::TrueTrace;
using cminer::util::Rng;

namespace {

/** L2 inflation per unit contention-pressure. */
constexpr double kL2Boost = 1.6;
/** Log-IPC penalty per unit contention-pressure. */
constexpr double kIpcPenalty = 0.35;

} // namespace

TrueTrace
composeColocated(const SyntheticBenchmark &a, const SyntheticBenchmark &b,
                 Rng &rng, const ColocationOptions &options)
{
    CM_ASSERT(&a.catalog() == &b.catalog());
    const EventCatalog &catalog = a.catalog();

    const TrueTrace trace_a = a.generateTrace(rng);
    const TrueTrace trace_b = b.generateTrace(rng);
    const std::size_t n =
        std::min(trace_a.intervalCount(), trace_b.intervalCount());
    CM_ASSERT(trace_a.intervalMs() == trace_b.intervalMs());

    double contention = options.contention;
    if (contention < 0.0)
        contention = a.name() == b.name() ? 0.15 : 0.75;
    contention = std::clamp(contention, 0.0, 1.0);

    // Contention pressure: a slow AR(1) process squashed to [0, 1],
    // standing in for how badly the two footprints collide over time.
    std::vector<double> pressure(n);
    {
        double x = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            x = 0.9 * x + rng.gaussian(0.0, 0.5);
            pressure[t] = 1.0 / (1.0 + std::exp(-x));
        }
    }

    // L2 events get inflated by contention.
    std::vector<bool> is_l2(catalog.size(), false);
    for (const char *abbrev :
         {"L2H", "L2R", "L2C", "L2A", "L2M", "L2S"})
        is_l2[catalog.idOfAbbrev(abbrev)] = true;

    TrueTrace combined(n, catalog.size(), trace_a.intervalMs());
    for (EventId id = 0; id < catalog.size(); ++id) {
        const bool fixed = catalog.info(id).fixedCounter;
        for (std::size_t t = 0; t < n; ++t) {
            double count = trace_a.count(id, t) + trace_b.count(id, t);
            if (fixed) {
                // Cycles don't add across co-runners on a shared core
                // budget; keep the single-node scale.
                count *= 0.5;
            }
            if (is_l2[id]) {
                count *= 1.0 + contention * kL2Boost * pressure[t];
            }
            combined.setCount(id, t, count);
        }
    }

    // Combined IPC: harmonic mean of the two programs' IPCs (shared
    // pipeline), degraded in proportion to the same contention pressure
    // that inflated the L2 events — that correlation is what makes the
    // importance ranker surface L2 events for dissimilar pairs.
    const EventId inst = catalog.idOf("INST_RETIRED.ANY");
    const EventId cyc = catalog.idOf("CPU_CLK_UNHALTED.THREAD");
    for (std::size_t t = 0; t < n; ++t) {
        const double ipc_a = trace_a.ipc(t);
        const double ipc_b = trace_b.ipc(t);
        const double harmonic =
            2.0 * ipc_a * ipc_b / std::max(1e-9, ipc_a + ipc_b);
        const double penalty =
            std::exp(-contention * kIpcPenalty * pressure[t]);
        const double ipc = std::clamp(harmonic * penalty, 0.05, 5.0);
        combined.setIpc(t, ipc);
        // Keep the fixed counters consistent with the combined IPC.
        const double cycles = combined.count(cyc, t);
        combined.setCount(inst, t, cycles * ipc);
    }

    return combined;
}

} // namespace cminer::workload
