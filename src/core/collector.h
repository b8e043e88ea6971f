/**
 * @file
 * The data collector (paper Section III-A): runs benchmarks, samples
 * their events through the PMU in OCOE or MLPX mode, and records the
 * resulting time series — plus the fixed-counter IPC — in the two-level
 * database.
 *
 * The collector is the pipeline's fault boundary. An attached
 * FaultInjector can make the sampler launch or the store insertion fail
 * transiently (retried with deterministic exponential backoff) and can
 * damage the sampled series (quarantined or repaired downstream); the
 * try* entry points surface those failures as recoverable Status values
 * instead of killing the job.
 */

#ifndef CMINER_CORE_COLLECTOR_H
#define CMINER_CORE_COLLECTOR_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pmu/backend.h"
#include "pmu/event.h"
#include "pmu/schedule.h"
#include "pmu/trace.h"
#include "store/database.h"
#include "ts/time_series.h"
#include "util/fault_injection.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/benchmark.h"

namespace cminer::core {

/** The name under which measured IPC is stored alongside event series. */
inline constexpr const char *ipc_series_name = "IPC";

/**
 * Build the collection backend for a requested kind (DESIGN.md §16).
 *
 * BackendKind::Sim always succeeds. BackendKind::Perf is probed at
 * runtime (perf_event_paranoid, a trial counter open); when the probe
 * fails, the factory logs the reason, bumps the
 * `collector.backend_fallbacks` metric, and returns a SimSampler — the
 * pipeline keeps working everywhere, real hardware is used where it can
 * be. The perf backend measures the built-in workload::SyntheticLoad.
 */
std::unique_ptr<cminer::pmu::SamplerBackend>
makeSamplerBackend(cminer::pmu::BackendKind kind,
                   const cminer::pmu::EventCatalog &catalog,
                   cminer::pmu::PmuConfig config = {});

/** One recorded run: its database id and the measured series. */
struct CollectedRun
{
    cminer::store::RunId id = -1;
    /** Measured event series, in request order, then the IPC series. */
    std::vector<cminer::ts::TimeSeries> series;

    /** The measured IPC series (last element). */
    const cminer::ts::TimeSeries &ipc() const { return series.back(); }
};

/**
 * Samples benchmarks and records runs.
 */
class DataCollector
{
  public:
    /**
     * Collect through the simulated PMU (bit-identical to the pre-seam
     * collector).
     *
     * @param db database runs are recorded into
     * @param catalog event catalog
     * @param pmu_config PMU description (counters, interval, rotation)
     */
    DataCollector(cminer::store::Database &db,
                  const cminer::pmu::EventCatalog &catalog,
                  cminer::pmu::PmuConfig pmu_config = {});

    /**
     * Collect through an explicit backend (see makeSamplerBackend).
     * The fault boundary — transient retry, quarantine, injected
     * damage — behaves identically for every backend.
     */
    DataCollector(cminer::store::Database &db,
                  const cminer::pmu::EventCatalog &catalog,
                  std::unique_ptr<cminer::pmu::SamplerBackend> backend);

    /** The collection backend in use (for its kind and PMU config). */
    const cminer::pmu::SamplerBackend &backend() const
    {
        return *backend_;
    }

    /**
     * Attach a fault injector (not owned; nullptr detaches). Injected
     * transient faults are retried per the retry options; injected data
     * damage flows into the sampled series.
     */
    void setFaultInjector(cminer::util::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /** The attached fault injector, or nullptr. */
    cminer::util::FaultInjector *faultInjector() const { return injector_; }

    /** Backoff policy for transient collection/store failures. */
    void setRetryOptions(cminer::util::RetryOptions options)
    {
        retryOptions_ = options;
    }

    /** Transient retries performed so far (across all runs). */
    std::size_t transientRetries() const { return transientRetries_; }

    /** Total backoff delay requested so far (simulated, not slept). */
    double retryDelayMs() const { return retryClock_.totalMs(); }

    /**
     * One OCOE run measuring up to a counter's worth of events.
     *
     * @param benchmark workload to run
     * @param events events to measure; at most the programmable-counter
     *        count (use collectOcoePlan to cover more)
     * @param rng run randomness
     * @param config Spark configuration
     */
    CollectedRun
    collectOcoe(const cminer::workload::SyntheticBenchmark &benchmark,
                const std::vector<cminer::pmu::EventId> &events,
                cminer::util::Rng &rng,
                const cminer::workload::SparkConfig &config = {});

    /**
     * Cover an arbitrary event list with OCOE: one *separate run* per
     * counter-sized group (the cost the paper's Fig. 15 quantifies).
     */
    std::vector<CollectedRun>
    collectOcoePlan(const cminer::workload::SyntheticBenchmark &benchmark,
                    const std::vector<cminer::pmu::EventId> &events,
                    cminer::util::Rng &rng,
                    const cminer::workload::SparkConfig &config = {});

    /**
     * One MLPX run multiplexing all requested events onto the counters.
     */
    CollectedRun
    collectMlpx(const cminer::workload::SyntheticBenchmark &benchmark,
                const std::vector<cminer::pmu::EventId> &events,
                cminer::util::Rng &rng,
                const cminer::workload::SparkConfig &config = {},
                cminer::pmu::RotationPolicy policy =
                    cminer::pmu::RotationPolicy::RoundRobin);

    /**
     * Recoverable MLPX collection: sampler-launch and store transients
     * are retried with backoff; damage that still prevents recording
     * (exhausted retries, unstorable series) comes back as a Status so
     * the caller can quarantine the run and continue.
     */
    cminer::util::StatusOr<CollectedRun>
    tryCollectMlpx(const cminer::workload::SyntheticBenchmark &benchmark,
                   const std::vector<cminer::pmu::EventId> &events,
                   cminer::util::Rng &rng,
                   const cminer::workload::SparkConfig &config = {},
                   cminer::pmu::RotationPolicy policy =
                       cminer::pmu::RotationPolicy::RoundRobin);

    /**
     * MLPX-measure an externally produced trace (e.g. a co-located
     * composition) and record it under the given program/suite names.
     */
    CollectedRun
    collectMlpxFromTrace(const cminer::pmu::TrueTrace &trace,
                         const std::string &program,
                         const std::string &suite,
                         const std::vector<cminer::pmu::EventId> &events,
                         cminer::util::Rng &rng);

    /** Recoverable flavour of collectMlpxFromTrace. */
    cminer::util::StatusOr<CollectedRun>
    tryCollectMlpxFromTrace(const cminer::pmu::TrueTrace &trace,
                            const std::string &program,
                            const std::string &suite,
                            const std::vector<cminer::pmu::EventId>
                                &events,
                            cminer::util::Rng &rng);

  private:
    cminer::util::StatusOr<CollectedRun>
    tryRecord(const std::string &program, const std::string &suite,
              const std::string &mode, const cminer::pmu::TrueTrace &trace,
              std::vector<cminer::ts::TimeSeries> series,
              cminer::util::Rng &rng);

    CollectedRun record(const std::string &program,
                        const std::string &suite, const std::string &mode,
                        const cminer::pmu::TrueTrace &trace,
                        std::vector<cminer::ts::TimeSeries> series,
                        cminer::util::Rng &rng);

    /** Retry `attempt` against injected transients, tracking counts. */
    cminer::util::Status
    withTransientRetry(const std::function<cminer::util::Status()>
                           &attempt);

    cminer::store::Database &db_;
    const cminer::pmu::EventCatalog &catalog_;
    std::unique_ptr<cminer::pmu::SamplerBackend> backend_;
    cminer::util::FaultInjector *injector_ = nullptr;
    cminer::util::RetryOptions retryOptions_;
    cminer::util::RecordingClock retryClock_;
    std::size_t transientRetries_ = 0;
};

} // namespace cminer::core

#endif // CMINER_CORE_COLLECTOR_H
