#include "core/collector.h"

#include <memory>
#include <utility>

#include "pmu/linux_perf_sampler.h"
#include "pmu/sim_sampler.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "workload/synthetic_load.h"

namespace cminer::core {

using cminer::pmu::EventId;
using cminer::pmu::MlpxSchedule;
using cminer::pmu::OcoePlan;
using cminer::pmu::RotationPolicy;
using cminer::pmu::TrueTrace;
using cminer::ts::TimeSeries;
using cminer::util::Rng;
using cminer::util::Status;
using cminer::util::StatusOr;
using cminer::workload::SparkConfig;
using cminer::workload::SyntheticBenchmark;

std::unique_ptr<cminer::pmu::SamplerBackend>
makeSamplerBackend(cminer::pmu::BackendKind kind,
                   const cminer::pmu::EventCatalog &catalog,
                   cminer::pmu::PmuConfig config)
{
    if (kind == cminer::pmu::BackendKind::Perf) {
        const Status probed = cminer::pmu::LinuxPerfSampler::probe();
        if (probed.ok()) {
            // The perf backend measures something real: the built-in
            // phase-rotating synthetic load, injected here so pmu never
            // links the workload library.
            auto load =
                std::make_shared<cminer::workload::SyntheticLoad>();
            return std::make_unique<cminer::pmu::LinuxPerfSampler>(
                catalog, config,
                [load]() { return load->runChunk(); });
        }
        cminer::util::count("collector.backend_fallbacks");
        cminer::util::warn("collector: perf backend unavailable, "
                           "falling back to sim: " +
                           probed.message());
    }
    return std::make_unique<cminer::pmu::SimSampler>(catalog, config);
}

DataCollector::DataCollector(cminer::store::Database &db,
                             const cminer::pmu::EventCatalog &catalog,
                             cminer::pmu::PmuConfig pmu_config)
    : db_(db),
      catalog_(catalog),
      backend_(std::make_unique<cminer::pmu::SimSampler>(catalog,
                                                         pmu_config))
{
}

DataCollector::DataCollector(
    cminer::store::Database &db, const cminer::pmu::EventCatalog &catalog,
    std::unique_ptr<cminer::pmu::SamplerBackend> backend)
    : db_(db), catalog_(catalog), backend_(std::move(backend))
{
    CM_ASSERT(backend_ != nullptr);
}

Status
DataCollector::withTransientRetry(const std::function<Status()> &attempt)
{
    const auto result =
        cminer::util::retryWithBackoff(retryOptions_, retryClock_, attempt);
    transientRetries_ += result.attempts - 1;
    cminer::util::count("collector.transient_retries",
                        result.attempts - 1);
    return result.status;
}

StatusOr<CollectedRun>
DataCollector::tryRecord(const std::string &program,
                         const std::string &suite, const std::string &mode,
                         const TrueTrace &trace,
                         std::vector<TimeSeries> series, Rng &rng)
{
    // Injected damage lands on the event series only — the fixed
    // counters behind the IPC series are never multiplexed and model
    // noise there is already part of the sampler.
    if (injector_ != nullptr)
        injector_->corruptSeries(series);
    series.push_back(backend_->measuredIpc(trace, rng));

    CollectedRun run;
    // The store insertion is retried as a unit: a transient store
    // failure leaves nothing recorded, so re-inserting is safe.
    const Status status = withTransientRetry([&]() -> Status {
        if (injector_ != nullptr) {
            const Status fault = injector_->transientFault("store");
            if (!fault.ok())
                return fault;
        }
        auto added = db_.tryAddRun(program, suite, mode,
                                   trace.durationMs(), series);
        if (!added.ok())
            return added.status();
        run.id = added.value();
        return Status::okStatus();
    });
    if (!status.ok()) {
        cminer::util::count("collector.runs_failed");
        return status.withContext("collector: recording run for " +
                                  program);
    }
    cminer::util::count("collector.runs_recorded");
    run.series = std::move(series);
    return run;
}

CollectedRun
DataCollector::record(const std::string &program, const std::string &suite,
                      const std::string &mode, const TrueTrace &trace,
                      std::vector<TimeSeries> series, Rng &rng)
{
    auto result =
        tryRecord(program, suite, mode, trace, std::move(series), rng);
    result.status().throwIfError();
    return std::move(result).value();
}

CollectedRun
DataCollector::collectOcoe(const SyntheticBenchmark &benchmark,
                           const std::vector<EventId> &events, Rng &rng,
                           const SparkConfig &config)
{
    if (events.size() > backend_->config().programmableCounters) {
        util::fatal("collector: OCOE run asked to measure more events "
                    "than there are programmable counters; use "
                    "collectOcoePlan");
    }
    const TrueTrace trace = benchmark.generateTrace(rng, config);
    auto series = backend_->measureOcoe(trace, events, rng);
    return record(benchmark.name(), benchmark.suite(), "ocoe", trace,
                  std::move(series), rng);
}

std::vector<CollectedRun>
DataCollector::collectOcoePlan(const SyntheticBenchmark &benchmark,
                               const std::vector<EventId> &events,
                               Rng &rng, const SparkConfig &config)
{
    const OcoePlan plan(events, backend_->config().programmableCounters);
    std::vector<CollectedRun> runs;
    runs.reserve(plan.runCount());
    for (std::size_t r = 0; r < plan.runCount(); ++r)
        runs.push_back(collectOcoe(benchmark, plan.run(r), rng, config));
    return runs;
}

StatusOr<CollectedRun>
DataCollector::tryCollectMlpx(const SyntheticBenchmark &benchmark,
                              const std::vector<EventId> &events, Rng &rng,
                              const SparkConfig &config,
                              RotationPolicy policy)
{
    cminer::util::Span span("collect.run");
    span.label("benchmark", benchmark.name());
    // A transient sampler-launch failure happens *before* the trace is
    // drawn, so a successful retry consumes the caller's Rng stream
    // exactly as an undisturbed run would.
    const Status launch = withTransientRetry([&]() -> Status {
        return injector_ != nullptr
            ? injector_->transientFault("sampler")
            : Status::okStatus();
    });
    if (!launch.ok())
        return launch.withContext("collector: launching MLPX run for " +
                                  benchmark.name());

    const TrueTrace trace = benchmark.generateTrace(rng, config);
    const MlpxSchedule schedule(events,
                                backend_->config().programmableCounters,
                                policy);
    auto measured = backend_->measureMlpx(trace, schedule, rng);
    return tryRecord(benchmark.name(), benchmark.suite(), "mlpx", trace,
                     std::move(measured.series), rng);
}

CollectedRun
DataCollector::collectMlpx(const SyntheticBenchmark &benchmark,
                           const std::vector<EventId> &events, Rng &rng,
                           const SparkConfig &config,
                           RotationPolicy policy)
{
    auto result = tryCollectMlpx(benchmark, events, rng, config, policy);
    result.status().throwIfError();
    return std::move(result).value();
}

StatusOr<CollectedRun>
DataCollector::tryCollectMlpxFromTrace(const TrueTrace &trace,
                                       const std::string &program,
                                       const std::string &suite,
                                       const std::vector<EventId> &events,
                                       Rng &rng)
{
    cminer::util::Span span("collect.run");
    span.label("benchmark", program);
    const Status launch = withTransientRetry([&]() -> Status {
        return injector_ != nullptr
            ? injector_->transientFault("sampler")
            : Status::okStatus();
    });
    if (!launch.ok())
        return launch.withContext("collector: launching MLPX run for " +
                                  program);

    const MlpxSchedule schedule(events,
                                backend_->config().programmableCounters);
    auto measured = backend_->measureMlpx(trace, schedule, rng);
    return tryRecord(program, suite, "mlpx", trace,
                     std::move(measured.series), rng);
}

CollectedRun
DataCollector::collectMlpxFromTrace(const TrueTrace &trace,
                                    const std::string &program,
                                    const std::string &suite,
                                    const std::vector<EventId> &events,
                                    Rng &rng)
{
    auto result =
        tryCollectMlpxFromTrace(trace, program, suite, events, rng);
    result.status().throwIfError();
    return std::move(result).value();
}

} // namespace cminer::core
