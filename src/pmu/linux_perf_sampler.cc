#include "pmu/linux_perf_sampler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/string_util.h"

#if defined(CMINER_HAVE_PERF)
#include <cerrno>
#include <cstring>
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace cminer::pmu {

using cminer::ts::TimeSeries;
using cminer::util::Rng;
using cminer::util::Status;

namespace {

/** Fallback spin when no load callback is injected. */
std::uint64_t
builtinSpin()
{
    static std::uint64_t acc = 1;
    for (int i = 0; i < 20000; ++i) {
        acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
        acc ^= acc >> 29;
    }
    return acc;
}

} // namespace

#if defined(CMINER_HAVE_PERF)

namespace {

/** One perf event attribute candidate: (type, config). */
struct AttrSpec
{
    std::uint32_t type = 0;
    std::uint64_t config = 0;
};

constexpr std::uint64_t
cacheConfig(unsigned cache, unsigned op, unsigned result)
{
    return static_cast<std::uint64_t>(cache) |
           (static_cast<std::uint64_t>(op) << 8) |
           (static_cast<std::uint64_t>(result) << 16);
}

int
perfEventOpen(perf_event_attr &attr, int group_fd)
{
    return static_cast<int>(syscall(__NR_perf_event_open, &attr, 0, -1,
                                    group_fd, 0));
}

perf_event_attr
makeAttr(const AttrSpec &spec, bool disabled)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = spec.type;
    attr.config = spec.config;
    attr.disabled = disabled ? 1 : 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format =
        PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
    return attr;
}

/**
 * Candidate perf events for one catalog event, most faithful first.
 *
 * The catalog names simulated Haswell events; real collection projects
 * them onto the portable perf vocabulary by category. Categories with
 * several plausible projections rotate by event id so neighbouring
 * catalog events do not all collapse onto a single hardware event.
 * Every chain ends in events that open nearly everywhere.
 */
std::vector<AttrSpec>
candidatesFor(const EventInfo &info, EventId id)
{
    using Cat = EventCategory;
    std::vector<AttrSpec> c;
    auto hw = [&](std::uint64_t config) {
        c.push_back({PERF_TYPE_HARDWARE, config});
    };
    auto cache = [&](unsigned which, unsigned op, unsigned result) {
        c.push_back({PERF_TYPE_HW_CACHE, cacheConfig(which, op, result)});
    };
    const std::size_t pick = id; // rotation salt within a category
    switch (info.category) {
      case Cat::Fixed:
        if (info.name == "CPU_CLK_UNHALTED.THREAD")
            hw(PERF_COUNT_HW_CPU_CYCLES);
        else if (info.name == "CPU_CLK_UNHALTED.REF_TSC")
            hw(PERF_COUNT_HW_REF_CPU_CYCLES);
        else
            hw(PERF_COUNT_HW_INSTRUCTIONS);
        break;
      case Cat::Frontend:
        if (pick % 2 == 0)
            cache(PERF_COUNT_HW_CACHE_L1I, PERF_COUNT_HW_CACHE_OP_READ,
                  PERF_COUNT_HW_CACHE_RESULT_MISS);
        else
            cache(PERF_COUNT_HW_CACHE_L1I, PERF_COUNT_HW_CACHE_OP_READ,
                  PERF_COUNT_HW_CACHE_RESULT_ACCESS);
        break;
      case Cat::Branch:
        if (pick % 2 == 0)
            hw(PERF_COUNT_HW_BRANCH_INSTRUCTIONS);
        else
            hw(PERF_COUNT_HW_BRANCH_MISSES);
        break;
      case Cat::Cache:
        if (pick % 2 == 0)
            hw(PERF_COUNT_HW_CACHE_REFERENCES);
        else
            hw(PERF_COUNT_HW_CACHE_MISSES);
        break;
      case Cat::Tlb:
        if (pick % 2 == 0)
            cache(PERF_COUNT_HW_CACHE_DTLB, PERF_COUNT_HW_CACHE_OP_READ,
                  PERF_COUNT_HW_CACHE_RESULT_MISS);
        else
            cache(PERF_COUNT_HW_CACHE_ITLB, PERF_COUNT_HW_CACHE_OP_READ,
                  PERF_COUNT_HW_CACHE_RESULT_MISS);
        break;
      case Cat::Memory:
        if (pick % 2 == 0)
            cache(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
                  PERF_COUNT_HW_CACHE_RESULT_ACCESS);
        else
            cache(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
                  PERF_COUNT_HW_CACHE_RESULT_MISS);
        break;
      case Cat::Remote:
        cache(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
              PERF_COUNT_HW_CACHE_RESULT_MISS);
        break;
      case Cat::Uops:
        hw(PERF_COUNT_HW_INSTRUCTIONS);
        break;
      case Cat::Stall:
        if (pick % 2 == 0)
            hw(PERF_COUNT_HW_STALLED_CYCLES_FRONTEND);
        else
            hw(PERF_COUNT_HW_STALLED_CYCLES_BACKEND);
        break;
      case Cat::Other:
        c.push_back({PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES});
        break;
    }
    // Universal degradation chain: a PMU that lacks the projection still
    // measures *something* real rather than failing the whole group.
    hw(PERF_COUNT_HW_INSTRUCTIONS);
    c.push_back({PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK});
    return c;
}

/** An open counter fd with its last absolute reading. */
struct OpenCounter
{
    int fd = -1;
    bool leader = false;    ///< owns group enable/reset
    bool grouped = false;   ///< scheduled as part of a leader's group
    std::uint64_t value = 0;
    std::uint64_t enabled = 0;
    std::uint64_t running = 0;
};

/** Non-group read layout for TOTAL_TIME_ENABLED|TOTAL_TIME_RUNNING. */
struct ReadSample
{
    std::uint64_t value = 0;
    std::uint64_t enabled = 0;
    std::uint64_t running = 0;
};

bool
readCounter(const OpenCounter &counter, ReadSample &out)
{
    ReadSample sample;
    const ssize_t got = read(counter.fd, &sample, sizeof(sample));
    if (got != static_cast<ssize_t>(sizeof(sample)))
        return false;
    out = sample;
    return true;
}

} // namespace

Status
LinuxPerfSampler::probe()
{
    std::ifstream paranoid_file("/proc/sys/kernel/perf_event_paranoid");
    int paranoid = 0;
    if (!(paranoid_file >> paranoid)) {
        return Status::dataError(
            "perf probe: no perf_event subsystem "
            "(/proc/sys/kernel/perf_event_paranoid missing)");
    }
    AttrSpec spec{PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS};
    perf_event_attr attr = makeAttr(spec, /*disabled=*/true);
    int fd = perfEventOpen(attr, -1);
    if (fd < 0 && (errno == ENOENT || errno == ENODEV ||
                   errno == EOPNOTSUPP)) {
        // No hardware PMU (common in VMs); cycles sometimes differs.
        spec.config = PERF_COUNT_HW_CPU_CYCLES;
        attr = makeAttr(spec, true);
        fd = perfEventOpen(attr, -1);
    }
    if (fd >= 0) {
        close(fd);
        return Status::okStatus();
    }
    const int err = errno;
    if (err == EACCES || err == EPERM) {
        return Status::dataError(util::format(
            "perf probe: perf_event_paranoid=%d blocks unprivileged "
            "hardware counter access",
            paranoid));
    }
    if (err == ENOSYS) {
        return Status::dataError(
            "perf probe: perf_event_open syscall unavailable");
    }
    return Status::dataError(
        std::string("perf probe: hardware counters unavailable: ") +
        std::strerror(err));
}

/** Per-measurement state: the cached fixed-counter IPC series. */
struct LinuxPerfSampler::Impl
{
    TimeSeries lastIpc;
    bool hasLastIpc = false;

    /**
     * The shared measurement loop: open one fd per event (grouped per
     * `groups` so the kernel co-schedules and rotates them), drive the
     * load for each interval, read deltas, extrapolate by duty cycle.
     */
    MlpxMeasurement
    measure(const TrueTrace &window,
            const std::vector<EventId> &events,
            const std::vector<std::vector<std::size_t>> &groups,
            const EventCatalog &catalog, const LoadFn &load)
    {
        const std::size_t intervals = window.intervalCount();
        const double interval_ms = window.intervalMs();

        // Fixed-counter IPC group: instructions leader + cycles.
        std::vector<OpenCounter> fixed(2);
        {
            perf_event_attr inst = makeAttr(
                {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS}, true);
            fixed[0].fd = perfEventOpen(inst, -1);
            fixed[0].leader = true;
            if (fixed[0].fd < 0) {
                util::fatal(std::string(
                    "perf backend: cannot open the instructions "
                    "counter: ") + std::strerror(errno));
            }
            perf_event_attr cyc = makeAttr(
                {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES}, false);
            fixed[1].fd = perfEventOpen(cyc, fixed[0].fd);
            fixed[1].grouped = true;
            if (fixed[1].fd < 0) {
                // Fall back to a standalone cycles counter.
                cyc.disabled = 1;
                fixed[1].fd = perfEventOpen(cyc, -1);
                fixed[1].leader = fixed[1].fd >= 0;
                fixed[1].grouped = false;
            }
        }

        // One fd per scheduled event, grouped by the MLPX plan. A
        // sibling the PMU cannot co-host degrades to its own singleton
        // group — the kernel still rotates it, duty scaling still holds.
        std::vector<OpenCounter> counters(events.size());
        for (const auto &group : groups) {
            int group_fd = -1;
            for (std::size_t member : group) {
                OpenCounter &counter = counters[member];
                const auto specs =
                    candidatesFor(catalog.info(events[member]),
                                  events[member]);
                for (const AttrSpec &spec : specs) {
                    perf_event_attr attr =
                        makeAttr(spec, group_fd < 0);
                    counter.fd = perfEventOpen(attr, group_fd);
                    if (counter.fd < 0 && group_fd >= 0) {
                        // Retry outside the group before giving up on
                        // this candidate.
                        attr.disabled = 1;
                        counter.fd = perfEventOpen(attr, -1);
                        if (counter.fd >= 0) {
                            counter.leader = true;
                            break;
                        }
                    } else if (counter.fd >= 0) {
                        counter.leader = group_fd < 0;
                        counter.grouped = group_fd >= 0;
                        break;
                    }
                }
                if (counter.fd < 0) {
                    util::fatal(util::format(
                        "perf backend: cannot open any counter for "
                        "event %s: %s",
                        catalog.info(events[member]).name.c_str(),
                        std::strerror(errno)));
                }
                if (counter.leader && group_fd < 0)
                    group_fd = counter.fd;
            }
        }

        auto enableAll = [&](std::vector<OpenCounter> &set) {
            for (OpenCounter &counter : set) {
                if (!counter.leader)
                    continue;
                ioctl(counter.fd, PERF_EVENT_IOC_RESET,
                      PERF_IOC_FLAG_GROUP);
                ioctl(counter.fd, PERF_EVENT_IOC_ENABLE,
                      PERF_IOC_FLAG_GROUP);
            }
        };
        enableAll(fixed);
        enableAll(counters);

        auto baseline = [&](std::vector<OpenCounter> &set) {
            for (OpenCounter &counter : set) {
                ReadSample sample;
                if (readCounter(counter, sample)) {
                    counter.value = sample.value;
                    counter.enabled = sample.enabled;
                    counter.running = sample.running;
                }
            }
        };
        baseline(fixed);
        baseline(counters);

        std::vector<std::vector<double>> measured(
            events.size(), std::vector<double>(intervals, 0.0));
        std::vector<double> duty_total(events.size(), 0.0);
        std::vector<double> ipc(intervals, 0.0);

        // Consume the load's checksum so the work cannot be elided.
        std::uint64_t sink = 0;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t t = 0; t < intervals; ++t) {
            const auto target =
                start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                interval_ms *
                                static_cast<double>(t + 1)));
            do {
                sink ^= load ? load() : builtinSpin();
            } while (std::chrono::steady_clock::now() < target);

            // Interval read: delta counts scaled by the interval's duty
            // cycle, exactly the simulator's extrapolation shape.
            for (std::size_t i = 0; i < counters.size(); ++i) {
                OpenCounter &counter = counters[i];
                ReadSample sample;
                if (!readCounter(counter, sample))
                    continue; // keeps the interval's 0.0 (missing)
                const std::uint64_t d_value =
                    sample.value - counter.value;
                const std::uint64_t d_enabled =
                    sample.enabled - counter.enabled;
                const std::uint64_t d_running =
                    sample.running - counter.running;
                counter.value = sample.value;
                counter.enabled = sample.enabled;
                counter.running = sample.running;
                if (d_running == 0) {
                    measured[i][t] = 0.0; // the paper's missing value
                    continue;
                }
                const double scale =
                    static_cast<double>(d_enabled) /
                    static_cast<double>(d_running);
                measured[i][t] =
                    static_cast<double>(d_value) * scale;
                duty_total[i] +=
                    d_enabled > 0
                        ? static_cast<double>(d_running) /
                              static_cast<double>(d_enabled)
                        : 1.0;
            }

            double inst_delta = 0.0;
            double cyc_delta = 0.0;
            for (std::size_t f = 0; f < fixed.size(); ++f) {
                OpenCounter &counter = fixed[f];
                ReadSample sample;
                if (counter.fd < 0 || !readCounter(counter, sample))
                    continue;
                const std::uint64_t d_value =
                    sample.value - counter.value;
                const std::uint64_t d_enabled =
                    sample.enabled - counter.enabled;
                const std::uint64_t d_running =
                    sample.running - counter.running;
                counter.value = sample.value;
                counter.enabled = sample.enabled;
                counter.running = sample.running;
                double scaled = 0.0;
                if (d_running > 0) {
                    scaled = static_cast<double>(d_value) *
                             static_cast<double>(d_enabled) /
                             static_cast<double>(d_running);
                }
                if (f == 0)
                    inst_delta = scaled;
                else
                    cyc_delta = scaled;
            }
            ipc[t] = cyc_delta > 0.0 ? inst_delta / cyc_delta : 0.0;
        }
        (void)sink;

        for (OpenCounter &counter : counters) {
            if (counter.fd >= 0)
                close(counter.fd);
        }
        for (OpenCounter &counter : fixed) {
            if (counter.fd >= 0)
                close(counter.fd);
        }

        MlpxMeasurement out;
        out.series.reserve(events.size());
        out.dutyCycles.reserve(events.size());
        for (std::size_t i = 0; i < events.size(); ++i) {
            out.series.emplace_back(catalog.info(events[i]).name,
                                    std::move(measured[i]), interval_ms);
            out.dutyCycles.push_back(
                intervals > 0
                    ? duty_total[i] / static_cast<double>(intervals)
                    : 1.0);
        }
        lastIpc = TimeSeries("IPC", std::move(ipc), interval_ms);
        hasLastIpc = true;
        return out;
    }
};

LinuxPerfSampler::LinuxPerfSampler(const EventCatalog &catalog,
                                   PmuConfig config, LoadFn load)
    : catalog_(catalog),
      config_(config),
      load_(std::move(load)),
      impl_(std::make_unique<Impl>())
{
    validatePmuConfig(config_).throwIfError();
}

LinuxPerfSampler::~LinuxPerfSampler() = default;

std::vector<TimeSeries>
LinuxPerfSampler::measureOcoe(const TrueTrace &window,
                              const std::vector<EventId> &events,
                              Rng & /*rng*/)
{
    // OCOE: every event is its own singleton group — a dedicated
    // counter when the PMU has room, duty-scaled truth when it does not.
    std::vector<std::vector<std::size_t>> groups;
    groups.reserve(events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        groups.push_back({i});
    return impl_->measure(window, events, groups, catalog_, load_)
        .series;
}

MlpxMeasurement
LinuxPerfSampler::measureMlpx(const TrueTrace &window,
                              const MlpxSchedule &schedule, Rng & /*rng*/)
{
    std::vector<std::vector<std::size_t>> groups;
    groups.reserve(schedule.groupCount());
    for (std::size_t g = 0; g < schedule.groupCount(); ++g)
        groups.push_back(schedule.groupMembers(g));
    return impl_->measure(window, schedule.events(), groups, catalog_,
                          load_);
}

TimeSeries
LinuxPerfSampler::measuredIpc(const TrueTrace &window, Rng &rng)
{
    // The fixed-counter group measured alongside the most recent event
    // measurement *is* this window's IPC — one real execution produced
    // both, mirroring the simulator deriving both from one trace.
    if (impl_->hasLastIpc &&
        impl_->lastIpc.size() == window.intervalCount()) {
        return impl_->lastIpc;
    }
    // No matching measurement cached: measure a standalone window with
    // the fixed counters only.
    MlpxMeasurement unused = impl_->measure(
        window, {}, {}, catalog_, load_);
    (void)unused;
    (void)rng;
    return impl_->lastIpc;
}

#else // !CMINER_HAVE_PERF

/** Stub: the build has no <linux/perf_event.h>. */
struct LinuxPerfSampler::Impl
{
};

Status
LinuxPerfSampler::probe()
{
    return Status::dataError(
        "perf probe: built without perf_event support "
        "(<linux/perf_event.h> was unavailable at configure time)");
}

LinuxPerfSampler::LinuxPerfSampler(const EventCatalog &catalog,
                                   PmuConfig config, LoadFn load)
    : catalog_(catalog), config_(config), load_(std::move(load))
{
    (void)builtinSpin; // silence unused-function on stub builds
    util::fatal("perf backend not compiled in; probe before construction");
}

LinuxPerfSampler::~LinuxPerfSampler() = default;

std::vector<TimeSeries>
LinuxPerfSampler::measureOcoe(const TrueTrace &, const std::vector<EventId> &,
                              Rng &)
{
    util::fatal("perf backend not compiled in");
}

MlpxMeasurement
LinuxPerfSampler::measureMlpx(const TrueTrace &, const MlpxSchedule &,
                              Rng &)
{
    util::fatal("perf backend not compiled in");
}

TimeSeries
LinuxPerfSampler::measuredIpc(const TrueTrace &, Rng &)
{
    util::fatal("perf backend not compiled in");
}

#endif // CMINER_HAVE_PERF

} // namespace cminer::pmu
