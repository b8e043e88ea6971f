/**
 * @file
 * The store engine behind every `Database` (DESIGN.md §15): an
 * in-memory write buffer that absorbs addRun, plus immutable
 * memory-mapped segment files (store/segment.h).
 *
 * A store with a directory (Database::openStore) seals the buffer into
 * a new segment file when it crosses a size threshold, and a
 * background compactor merges small segments on a caller-provided
 * ThreadPool. A store without one (the default Database, and
 * Database::load) never seals on its own and its flush() does nothing:
 * its runs stay buffered, next to the one segment load() mapped. That
 * is the only difference between the two.
 *
 * Concurrency contract:
 *  - Mutations (addRun / flush) are single-writer: at most one thread
 *    mutates at a time (the ingest thread, the daemon's mining lane).
 *  - snapshot() may be called from any thread, concurrently with the
 *    writer and with maintenance. A StoreSnapshot pins the exact
 *    segment set and buffered runs it was built against by shared_ptr,
 *    so its spans stay valid — and its view stays consistent — across
 *    any number of subsequent seals and compactions. This mirrors the
 *    serving daemon's artifact-snapshot rule: a batch is processed
 *    against the state it was admitted under, never a mid-flight swap.
 *  - Direct (snapshot-free) readers get results that are valid until
 *    the next mutation or maintenance step.
 *
 * Durability: a sealed segment lands by atomic temp+rename, without
 * fsync, so once the addRun that sealed it returns the segment
 * survives a crash of this process, but not a power loss or kernel
 * crash, which can lose or truncate recently written files (a
 * truncated segment refuses to open). The write buffer survives
 * nothing until flush() seals it. Compaction writes the merged segment
 * first and retires inputs after the swap, so a process crash at any
 * point leaves a directory that open() resolves to exactly one copy of
 * every run (stale inputs of an interrupted compaction are detected by
 * their covered id ranges and deleted).
 */

#ifndef CMINER_STORE_STORE_INDEX_H
#define CMINER_STORE_STORE_INDEX_H

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "store/segment.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace cminer::util {
class ThreadPool;
}

namespace cminer::store {

/** Configuration of a directory-backed database (Database::openStore). */
struct StoreOptions
{
    /** Microarchitecture tag (must match existing segments on reopen). */
    std::string microarch = "haswell-e";
    /** Directory holding the segment files. Created if absent. */
    std::string directory;
    /**
     * Soft bound on store-owned RAM: the write buffer seals into a
     * segment once its raw series payload reaches
     * sealThresholdBytes (default memoryBudgetBytes / 8), so buffered
     * data never exceeds one threshold's worth plus the run being
     * added. Catalog metadata (program names, event lists) stays in
     * RAM — the budget governs the series payloads, which dominate at
     * fleet scale.
     */
    std::size_t memoryBudgetBytes = 64ull << 20;
    /** Seal threshold override; 0 derives memoryBudgetBytes / 8. */
    std::size_t sealThresholdBytes = 0;
    /**
     * Compaction target: adjacent segments smaller than half this are
     * merged until the merged file would exceed it. 0 derives
     * 4 * sealThresholdBytes. It caps only the merged file's size:
     * compaction streams the input columns into the merged file and
     * never assembles the container in RAM.
     */
    std::size_t compactTargetBytes = 0;
    /** Minimum adjacent small segments before a merge fires. */
    std::size_t compactFanIn = 4;
    /**
     * Pool for background compaction. Null runs compaction inline on
     * the sealing thread — deterministic, and what tests use.
     */
    cminer::util::ThreadPool *maintenancePool = nullptr;
};

/** Observable state of the store engine (gauges, tests). */
struct StoreStats
{
    std::size_t segmentCount = 0;
    std::size_t sealedRuns = 0;
    std::size_t bufferedRuns = 0;
    std::size_t bufferedBytes = 0;   ///< raw series bytes in the buffer
    std::uint64_t segmentFileBytes = 0;
    std::uint64_t seals = 0;
    std::uint64_t sealFailures = 0;
    std::uint64_t compactions = 0;
    std::uint64_t compactionFailures = 0;
};

/**
 * A pinned, immutable view of the store at one instant. Self-contained:
 * holds shared ownership of the segments and buffered runs it was built
 * from, so every span it hands out stays valid for the snapshot's
 * lifetime regardless of seals, compactions, or the Database itself
 * going away behind it.
 */
class StoreSnapshot
{
  public:
    /** Runs visible in this snapshot. */
    std::size_t runCount() const;

    /** Metadata of a run; fatal for unknown ids. */
    const RunMetadata &runInfo(RunId id) const;

    /** Sampling interval of a run's series, in ms. */
    double intervalMs(RunId id) const;

    /** Samples per series of a run. */
    std::size_t length(RunId id) const;

    /**
     * Zero-copy values of one event column, by position in
     * runInfo(id).events. Valid for the snapshot's lifetime.
     */
    std::span<const double> values(RunId id,
                                   std::size_t event_index) const;

    /** Column by event name; fatal when the run lacks the event. */
    std::span<const double> values(RunId id,
                                   const std::string &event) const;

    /** Ids of runs matching program (and optionally mode), ascending. */
    std::vector<RunId> findRuns(const std::string &program,
                                const std::string &mode = "") const;

  private:
    friend class StoreIndex;

    /** Where one run lives within this snapshot. */
    struct Location
    {
        const Segment *segment = nullptr; ///< null -> buffered
        std::size_t ordinal = 0;          ///< segment ordinal
        const BufferedRun *buffered = nullptr;
    };

    Location locate(RunId id) const;

    /** Pinned segments, ascending by firstId, contiguous ids. */
    std::vector<std::shared_ptr<const Segment>> segments_;
    /** Pinned buffered runs, ascending ids after the last segment. */
    std::vector<std::shared_ptr<const BufferedRun>> buffer_;
};

/**
 * The mutable store engine. One instance per Database, held by
 * shared_ptr so a move of the Database never invalidates the `this`
 * captured by a queued compaction task.
 */
class StoreIndex
{
  public:
    /**
     * Open (or create) the store in options.directory: scans existing
     * `*.cmseg` files, validates each, resolves leftovers of an
     * interrupted compaction, and rejects gaps, partial overlaps, or a
     * microarchitecture mismatch.
     */
    static cminer::util::StatusOr<std::shared_ptr<StoreIndex>>
    open(const StoreOptions &options);

    /**
     * A store with no directory: its buffer never seals on its own and
     * flush() does nothing. `segment`, when given, is its one sealed
     * segment (Database::load), and new run ids continue after it.
     */
    static std::shared_ptr<StoreIndex>
    detached(std::string microarch,
             std::shared_ptr<const Segment> segment = nullptr);

    /** Waits for in-flight maintenance; never blocks on readers. */
    ~StoreIndex();

    const StoreOptions &options() const { return options_; }
    const std::string &microarch() const { return options_.microarch; }

    /**
     * Record one run (single-writer). The one addRun validator: an
     * empty series list, mismatched series lengths, mixed sampling
     * intervals, or a non-finite execution time is a DataError, and
     * nothing is recorded. A store with a directory may seal the write
     * buffer inline before returning.
     */
    cminer::util::StatusOr<RunId>
    addRun(const std::string &program, const std::string &suite,
           const std::string &mode, double exec_time_ms,
           const std::vector<cminer::ts::TimeSeries> &series);

    /**
     * Seal whatever the write buffer holds (durability barrier). Does
     * nothing without a directory.
     */
    cminer::util::Status flush();

    /** Block until any queued/running compaction finishes. */
    void waitForMaintenance();

    /** Pin the current segment set + buffer. Any thread. */
    StoreSnapshot snapshot() const;

    std::size_t runCount() const;
    std::vector<RunId> findRuns(const std::string &program,
                                const std::string &mode) const;
    std::vector<std::string> programs() const;

    /** Engine observability (tests, gauges, the daemon's stats). */
    StoreStats stats() const;

  private:
    explicit StoreIndex(StoreOptions options);

    std::size_t sealThreshold() const;
    std::size_t compactTarget() const;

    /**
     * Seal the buffered runs into a segment file. Writer thread only;
     * the mutex is not held across the file I/O (snapshots stay
     * nonblocking), which is safe because only the writer mutates the
     * buffer.
     */
    cminer::util::Status seal();

    /** Decide and run/queue one compaction round. Writer thread. */
    void maybeCompact();

    /** Merge `inputs` (a contiguous range of segments_) into one. */
    void runCompaction(
        std::vector<std::shared_ptr<const Segment>> inputs);

    /** Path for the next segment file covering [first, last]. */
    std::string segmentPath(RunId first, RunId last);

    StoreOptions options_;
    mutable std::mutex mutex_;
    std::vector<std::shared_ptr<const Segment>> segments_;
    std::vector<std::shared_ptr<const BufferedRun>> buffer_;
    std::size_t bufferBytes_ = 0;
    std::size_t sealedRuns_ = 0;
    RunId nextId_ = 0;
    /** Uniquifies segment file names (seal and compaction may race). */
    std::atomic<std::uint64_t> generation_{0};
    bool compacting_ = false;
    std::future<void> maintenance_;
    StoreStats stats_;
};

} // namespace cminer::store

#endif // CMINER_STORE_STORE_INDEX_H
