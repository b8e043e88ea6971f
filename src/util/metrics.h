/**
 * @file
 * Process-wide named metrics for the mining pipeline: monotonic
 * counters (`ingest.lines_dropped`), last-value gauges
 * (`eir.best_error_percent`), and duration histograms
 * (`threadpool.queue_wait_ms`).
 *
 * Naming scheme: `<component>.<measurement>`, lower snake case, with
 * duration histograms suffixed `_ms`. Metric handles are created on
 * first use under the registry mutex and updated lock-free afterwards
 * (plain atomics), so counters fed from thread-pool workers are
 * race-free and their totals deterministic.
 *
 * Collection is off by default: the `count`/`gaugeSet`/`recordDuration`
 * helpers reduce to one relaxed atomic load and a branch when no
 * registry is installed (same posture as util/trace.h), so instrumented
 * hot paths cost nothing measurable when metrics are disabled. The
 * serve daemon is the exception: its registry is its only record of
 * what it answered, so `cminer serve` always installs one.
 */

#ifndef CMINER_UTIL_METRICS_H
#define CMINER_UTIL_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/trace.h"

namespace cminer::util {

class JsonWriter;

/** Monotonic counter; add() is lock-free. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written value; set() is lock-free. */
class Gauge
{
  public:
    void
    set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Duration histogram: count, total, min and max in milliseconds, plus
 * 28 power-of-two buckets whose upper edges run 2^(i-4) ms from 1/16
 * ms up. A negative duration lands in bucket 0, and a percentile is
 * the upper edge of the bucket holding the quantile: a deterministic
 * upper bound. record() takes the histogram's own mutex — durations
 * are recorded at task or request granularity, far off any
 * per-element hot loop.
 */
class DurationHistogram
{
  public:
    /** Aggregates of everything recorded so far. */
    struct Snapshot
    {
        std::uint64_t count = 0;
        double totalMs = 0.0;
        double minMs = 0.0;
        double maxMs = 0.0;
        /** Upper bucket edge of the median; 0 when empty. */
        double p50Ms = 0.0;
        /** Upper bucket edge of the 99th percentile; 0 when empty. */
        double p99Ms = 0.0;

        double
        meanMs() const
        {
            return count > 0
                ? totalMs / static_cast<double>(count) : 0.0;
        }
    };

    void record(double ms);
    Snapshot snapshot() const;

    /** Upper edge of the bucket holding the q-quantile (q in (0,1]). */
    double percentile(double q) const;

  private:
    static constexpr std::size_t bucket_count = 28;

    double percentileLocked(double q) const;

    mutable std::mutex mutex_;
    Snapshot data_;
    std::array<std::uint64_t, bucket_count> buckets_{};
};

/**
 * Named metric registry. Handles are stable for the registry's lifetime;
 * lookup by name locks, updates through the handle do not.
 */
class MetricsRegistry
{
  public:
    /**
     * @param clock time source for duration helpers (nowMs); defaults
     *        to a steady wall clock. Tests inject a ManualClock so
     *        recorded durations are deterministic.
     */
    explicit MetricsRegistry(TraceClock *clock = nullptr);

    /** The counter named `name`, created zeroed on first use. */
    Counter &counter(const std::string &name);
    /** The gauge named `name`, created zeroed on first use. */
    Gauge &gauge(const std::string &name);
    /** The histogram named `name`, created empty on first use. */
    DurationHistogram &histogram(const std::string &name);

    /** Current time from the registry's clock, for duration metrics. */
    double nowMs();

    /** Counter (name, value) pairs in name order. */
    std::vector<std::pair<std::string, std::uint64_t>> counters() const;
    /** Gauge (name, value) pairs in name order. */
    std::vector<std::pair<std::string, double>> gauges() const;
    /** Histogram (name, snapshot) pairs in name order. */
    std::vector<std::pair<std::string, DurationHistogram::Snapshot>>
    histograms() const;

    /**
     * All metrics as one JSON object:
     * {"counters": {...}, "gauges": {...}, "histograms": {name:
     * {"count": n, "totalMs": t, "meanMs": m, "minMs": a, "maxMs": b,
     * "p50Ms": p, "p99Ms": q}}}
     */
    std::string toJson() const;

    /** Write the toJson() document as the next value of `json`. */
    void writeJson(JsonWriter &json) const;

  private:
    TraceClock *clock_;
    SteadyClock steadyClock_;
    mutable std::mutex mutex_;
    // Ordered maps so exports and snapshots are deterministic.
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<DurationHistogram>>
        histograms_;
};

/** The installed registry, or nullptr when metrics are off. */
MetricsRegistry *globalMetrics();

/**
 * Install (or with nullptr remove) the process-wide registry. The
 * caller keeps ownership. Does not return until every in-flight
 * MetricsAccess pin has been released, so after
 * `setGlobalMetrics(nullptr)` the previous registry is safe to
 * destroy even if a pool worker was mid-update when it was removed.
 */
void setGlobalMetrics(MetricsRegistry *registry);

/**
 * Pins the installed registry for the current scope. A bare
 * `globalMetrics()` load is only safe when the caller can prove the
 * registry outlives the use; code running on pool workers cannot (a
 * drained task may execute after the owner uninstalls the registry).
 * The pin count is what setGlobalMetrics waits on, closing that
 * window. Keep the scope tight — an uninstalling thread blocks until
 * every pin is released — and never hold one across task execution.
 */
class MetricsAccess
{
  public:
    MetricsAccess();
    ~MetricsAccess();

    MetricsAccess(const MetricsAccess &) = delete;
    MetricsAccess &operator=(const MetricsAccess &) = delete;

    /** The pinned registry, or nullptr when metrics are off. */
    MetricsRegistry *
    get() const
    {
        return registry_;
    }

    explicit
    operator bool() const
    {
        return registry_ != nullptr;
    }

  private:
    MetricsRegistry *registry_;
};

/** Add to a global counter; no-op when metrics are disabled. */
void count(const char *name, std::uint64_t n = 1);
/** Set a global gauge; no-op when metrics are disabled. */
void gaugeSet(const char *name, double value);
/** Record into a global histogram; no-op when metrics are disabled. */
void recordDuration(const char *name, double ms);

/**
 * A metrics file read back for `cminer stats`. Parses exactly the
 * format MetricsRegistry::toJson emits (flat name -> scalar maps plus
 * per-histogram summary objects); a file without the percentile
 * fields reads them as 0.
 */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, DurationHistogram::Snapshot>>
        histograms;
};

/**
 * Parse a MetricsRegistry::toJson document. Counter values and
 * histogram counts must be whole numbers in [0, 2^64).
 *
 * @return the snapshot, or a ParseError Status naming what broke
 */
StatusOr<MetricsSnapshot> parseMetricsJson(const std::string &text);

} // namespace cminer::util

#endif // CMINER_UTIL_METRICS_H
