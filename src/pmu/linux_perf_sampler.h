/**
 * @file
 * The real-hardware backend: perf_event_open group FDs behind the
 * SamplerBackend seam.
 *
 * Event groups follow the same src/pmu/schedule MLPX plans as the
 * simulator: each MlpxSchedule group becomes one perf event group
 * (leader + siblings), all groups are enabled at once, and the kernel's
 * own rotation multiplexes them across the physical counters. Interval
 * reads return PERF_FORMAT_TOTAL_TIME_ENABLED / _TIME_RUNNING alongside
 * the counts, and each interval's count is extrapolated by the duty
 * cycle exactly the way the simulator extrapolates — an interval whose
 * group never ran reports 0.0 (the paper's missing value).
 *
 * Because the catalog describes a simulated Haswell-E, catalog events
 * map onto portable perf events by category (branch events onto
 * PERF_COUNT_HW_BRANCH_*, cache events onto the HW_CACHE encodings, and
 * so on); events the PMU cannot host degrade through a candidate chain
 * ending in a software event. The mapping is honest about being a
 * projection: the *measurements* are real, the names keep the catalog's
 * vocabulary.
 *
 * What executes while counters run is an injected load callback —
 * usually workload::SyntheticLoad, wired in by the collection factory
 * (core/collector.h) so this layer never depends on the workload
 * library.
 *
 * Availability is probed at runtime (perf_event_paranoid, a trial
 * counter open); on hosts without access the factory falls back to the
 * simulator with a logged, metric-counted reason. On non-Linux builds
 * the class compiles to a stub whose probe always fails.
 */

#ifndef CMINER_PMU_LINUX_PERF_SAMPLER_H
#define CMINER_PMU_LINUX_PERF_SAMPLER_H

#include <functional>
#include <memory>

#include "pmu/backend.h"

namespace cminer::pmu {

/**
 * Work to execute while the counters measure. Called repeatedly between
 * interval reads; each call should run tens of microseconds of real
 * work and return a checksum (consumed internally to keep the work
 * alive).
 */
using LoadFn = std::function<std::uint64_t()>;

/**
 * Measures real hardware counters around an in-process load.
 */
class LinuxPerfSampler : public SamplerBackend
{
  public:
    /**
     * Runtime availability: Ok when a hardware counter can actually be
     * opened; otherwise a DataError naming the obstacle
     * (perf_event_paranoid setting, missing syscall, no PMU).
     */
    static cminer::util::Status probe();

    /**
     * @param catalog event catalog (names and categories for mapping)
     * @param config PMU description; intervalMs paces the real reads
     * @param load work to run while measuring; when empty, a small
     *        built-in arithmetic spin is used
     */
    LinuxPerfSampler(const EventCatalog &catalog, PmuConfig config,
                     LoadFn load = {});
    ~LinuxPerfSampler() override;

    BackendKind kind() const override { return BackendKind::Perf; }

    const PmuConfig &config() const override { return config_; }

    std::vector<cminer::ts::TimeSeries>
    measureOcoe(const TrueTrace &window,
                const std::vector<EventId> &events,
                cminer::util::Rng &rng) override;

    MlpxMeasurement measureMlpx(const TrueTrace &window,
                                const MlpxSchedule &schedule,
                                cminer::util::Rng &rng) override;

    /**
     * The IPC measured by the fixed-counter group *during the most
     * recent* measureOcoe/measureMlpx call with the same window shape —
     * the series and the IPC describe one real execution, mirroring how
     * the simulator derives both from one trace. Falls back to a
     * standalone measurement when no matching window was measured.
     */
    cminer::ts::TimeSeries measuredIpc(const TrueTrace &window,
                                       cminer::util::Rng &rng) override;

  private:
    struct Impl;

    const EventCatalog &catalog_;
    PmuConfig config_;
    LoadFn load_;
    std::unique_ptr<Impl> impl_;
};

} // namespace cminer::pmu

#endif // CMINER_PMU_LINUX_PERF_SAMPLER_H
